package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"prairie/internal/core"
	"prairie/internal/exec"
	"prairie/internal/obs"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// encoderBytes is the oracle of the byte-identity tests: what
// json.NewEncoder — the server's writer before responses were assembled
// by appending — writes for v, trailing newline included.
func encoderBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withFragments fills the spliced fragments of r from its PlanText and
// Plan fields, the way the renderer makes them.
func withFragments(t testing.TB, r OptimizeResponse) *OptimizeResponse {
	t.Helper()
	r.head = appendString([]byte(`"plan_text":`), r.PlanText)
	if r.Plan != nil {
		b, err := json.Marshal(r.Plan)
		if err != nil {
			t.Fatal(err)
		}
		r.plan = append([]byte(`,"plan":`), b...)
	}
	return &r
}

// TestAppendJSONMatchesEncoder holds the hand-written envelope to the
// reflective encoder on synthetic values: every field set, every field
// zero, strings that need escapes, floats on both sides of the
// exponent cut-offs.
func TestAppendJSONMatchesEncoder(t *testing.T) {
	node := &wire.PlanNode{Op: "Merge_join", Props: map[string]wire.PropValue{
		"pred": {Kind: "pred", Pred: &wire.Pred{Op: "<", Left: &wire.Attr{Rel: "C1", Name: "a<b>&c"}, Const: &wire.PropValue{Kind: "int", Num: 3}}},
	}, Kids: []*wire.PlanNode{{File: "C1"}, {File: "C \"2"}}}
	full := OptimizeResponse{
		Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E2", N: 4, Graph: "star"},
		PlanText: "Merge_join(C1, C2)", Plan: node, Cost: 1234.5,
		Degraded: true, DegradeCause: "max_exprs", DegradePath: "memo",
		CacheHit: true, ElapsedUS: 17,
		Stats:     StatsSummary{Groups: 1, Exprs: 2, TransFired: 3, ImplFired: 4, CostedPlan: 5},
		Exec:      &ExecSummary{Rows: 7, ElapsedUS: 9},
		RequestID: "req-000001",
	}
	odd := full
	odd.Ruleset, odd.PlanText, odd.DegradeCause = "w<orld>&\"\\", "tab\there\nnl \x01 é \xff  ", "<"
	odd.Query = QuerySpec{Family: "Eé", N: -3}
	odd.Cost = 1e21
	odd.ElapsedUS, odd.Exec = math.MinInt64, &ExecSummary{}
	big := full
	big.Cost = 999999999999999999999
	cases := map[string]OptimizeResponse{"zero": {}, "full": full, "odd": odd, "big": big,
		"plain": {Ruleset: "relational", Query: QuerySpec{Family: "E1", N: 2}, PlanText: "File_scan(R1)", Cost: 64},
		"1e-7":  {Cost: 1e-7}, "-1e-6": {Cost: -0.000001}, "1e-6": {Cost: 1e-6}, "fraction": {Cost: 123456789.125}}
	for name, c := range cases {
		got, err := withFragments(t, c).appendJSON(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := encoderBytes(t, c); string(got)+"\n" != string(want) {
			t.Errorf("%s: appended\n%s\nencoder\n%s", name, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		r := withFragments(t, full)
		r.Cost = bad
		if _, err := r.appendJSON(nil); err == nil {
			t.Errorf("cost %v: no error (the encoder refuses it)", bad)
		}
	}
}

// servePools is the benchmark's serve pool at its widest (serve_churn):
// both OODB worlds × {E1,E2,E3} × {linear,star} × n 2..5, relational n
// 2..6.
func servePools() []OptimizeRequest {
	var pool []OptimizeRequest
	for _, w := range []string{"oodb/prairie", "oodb/volcano"} {
		for _, fam := range []string{"E1", "E2", "E3"} {
			for _, g := range []string{"", "star"} {
				for n := 2; n <= 5; n++ {
					pool = append(pool, OptimizeRequest{Ruleset: w, Query: QuerySpec{Family: fam, N: n, Graph: g}})
				}
			}
		}
	}
	for n := 2; n <= 6; n++ {
		pool = append(pool, OptimizeRequest{Ruleset: "relational", Query: QuerySpec{Family: "E1", N: n}})
	}
	return pool
}

// observedConfig configures the observers the way cmd/optserve does.
func observedConfig(cfg *Config) {
	metrics := obs.NewRegistry()
	cfg.Obs = &obs.Observer{Metrics: metrics}
	cfg.Flight = obs.NewFlightRecorderObserved(obs.FlightConfig{Capacity: 512}, metrics)
	cfg.Log = obs.NewLogger(io.Discard, obs.LevelInfo)
}

// serve pushes one request through the handler without a socket.
func serve(t testing.TB, srv *Server, path string, req any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", path, body, w.Code, w.Body)
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) && path != "/v1/invalidate" {
		t.Fatalf("%s %s: Content-Length %q, body is %d bytes", path, body, cl, w.Body.Len())
	}
	return w
}

// refPlans computes, outside the server and its cache, the plans a
// request can legitimately be answered with.
type refPlans struct {
	world        *World
	full         *core.Expr
	tiny         *core.Expr
	tinyDegraded bool
	stats        *volcano.Stats // of the full search
}

func reference(t testing.TB, reg *Registry, rq OptimizeRequest) refPlans {
	t.Helper()
	w, _ := reg.Lookup(rq.Ruleset)
	search := func(b volcano.Budget) (*core.Expr, *volcano.Stats) {
		tree, want, err := w.Build(rq.Query)
		if err != nil {
			t.Fatal(err)
		}
		o := volcano.NewOptimizer(w.RS)
		o.Opts.Budget = b
		plan, err := o.OptimizeContext(context.Background(), tree, want)
		if err != nil {
			t.Fatalf("%v: %v", rq, err)
		}
		return plan, o.Stats
	}
	ref := refPlans{world: w}
	ref.full, ref.stats = search(volcano.Budget{})
	var st *volcano.Stats
	ref.tiny, st = search(defaultBudgets()["tiny"])
	ref.tinyDegraded = st.Degraded
	return ref
}

// sameBytes fails with the neighbourhood of the first difference.
func sameBytes(t *testing.T, label string, served, want []byte) {
	t.Helper()
	if bytes.Equal(served, want) {
		return
	}
	i := 0
	for i < len(served) && i < len(want) && served[i] == want[i] {
		i++
	}
	from := max(0, i-80)
	t.Fatalf("%s: %d bytes served, the encoder writes %d; first difference at %d:\nserved  …%s\nencoder …%s",
		label, len(served), len(want), i, served[from:min(len(served), i+80)], want[from:min(len(want), i+80)])
}

// checkBody asserts that body is, byte for byte, what json.NewEncoder
// writes for the OptimizeResponse struct holding the envelope values
// the body carries and plan's own text, tree and cost. A nil plan (the
// answer depends on what the cache held: a degraded search warm-started
// from cached subplans) checks the body against its own decoded plan.
func checkBody(t *testing.T, label string, body []byte, ref refPlans, plan *core.Expr, withPlan bool) OptimizeResponse {
	t.Helper()
	var got OptimizeResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v: %.300s", label, err, body)
	}
	oracle := got
	if plan != nil {
		oracle.PlanText, oracle.Cost, oracle.Plan = plan.String(), plan.Cost(ref.world.RS.Class), nil
		if withPlan {
			var err error
			if oracle.Plan, err = wire.EncodePlan(plan); err != nil {
				t.Fatal(err)
			}
		}
	}
	if (oracle.Plan != nil) != withPlan || oracle.PlanText == "" {
		t.Fatalf("%s: include_plan=%v, plan present=%v, plan_text %q", label, withPlan, oracle.Plan != nil, oracle.PlanText)
	}
	sameBytes(t, label, body, encoderBytes(t, oracle))
	return got
}

// TestResponseBytes is the byte-identity matrix: every program of the
// benchmark's serve pools × include_plan on/off × miss, hit, the tiny
// budget, with observers on and off.
func TestResponseBytes(t *testing.T) {
	reg, err := DefaultRegistry(6, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	pool := servePools()
	// Two programs can be one search problem (at n=2 a star is a line,
	// commuted): the second is then answered from the first's entry, with
	// the first's plan.
	refs, twin := make([]refPlans, len(pool)), make([]bool, len(pool))
	first := map[string]int{}
	for i, rq := range pool {
		w, _ := reg.Lookup(rq.Ruleset)
		tree, _, err := w.Build(rq.Query)
		if err != nil {
			t.Fatal(err)
		}
		_, canon := w.RS.Fingerprint(tree)
		if j, ok := first[rq.Ruleset+canon]; ok {
			refs[i], twin[i] = refs[j], true
			continue
		}
		first[rq.Ruleset+canon] = i
		refs[i] = reference(t, reg, rq)
	}
	for _, observed := range []bool{false, true} {
		cfg := Config{Registry: reg}
		if observed {
			observedConfig(&cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		one := func(label string, i int, rq OptimizeRequest, plan *core.Expr) OptimizeResponse {
			w := serve(t, srv, "/v1/optimize", rq)
			got := checkBody(t, label, w.Body.Bytes(), refs[i], plan, rq.IncludePlan)
			if (got.RequestID != "") != observed || got.RequestID != w.Header().Get("X-Request-Id") {
				t.Fatalf("%s: request_id %q with recorder on=%v", label, got.RequestID, observed)
			}
			return got
		}
		// pass 0 misses with include_plan and pass 1 without, so the
		// entry's plan fragment is filled once by a miss and once lazily
		// by the first hit that asks.
		for pass := 0; pass < 2; pass++ {
			for i, rq := range pool {
				ref := refs[i]
				label := func(s string) string { return rq.Ruleset + " " + rq.Query.String() + " " + s }
				rq.IncludePlan = pass == 0
				miss := one(label("miss"), i, rq, ref.full)
				if miss.CacheHit != twin[i] || miss.Stats.Groups != ref.stats.Groups || (!twin[i] && miss.Stats.TransFired != sumCounts(ref.stats.TransFired)) {
					t.Fatalf("%s: envelope %+v, cold search had %d groups", label("miss"), miss, ref.stats.Groups)
				}
				for _, with := range []bool{true, false, true} {
					rq.IncludePlan = with
					hit := one(label("hit"), i, rq, ref.full)
					if !hit.CacheHit || hit.Stats.Exprs != ref.stats.Exprs || hit.Stats.TransFired != 0 {
						t.Fatalf("%s: envelope %+v", label("hit"), hit)
					}
				}
				rq.Budget = "tiny"
				for _, with := range []bool{true, false} {
					rq.IncludePlan = with
					plan := ref.tiny
					if ref.tinyDegraded {
						plan = nil
					}
					if tiny := one(label("tiny"), i, rq, plan); tiny.Degraded != ref.tinyDegraded || (tiny.Degraded && (tiny.DegradeCause == "" || tiny.DegradePath == "" || tiny.CacheHit)) {
						t.Fatalf("%s: envelope %+v, want degraded=%v", label("tiny"), tiny, ref.tinyDegraded)
					}
				}
			}
			srv.Cache().Invalidate()
		}
	}
}

// TestServedPredicateEscapes: the pools' queries compare with '=' only,
// so a '<' predicate is put into an entry's plan before the server first
// renders it; the served bytes carry it the way the encoder escapes it.
func TestServedPredicateEscapes(t *testing.T) {
	srv, _ := testServer(t, nil)
	world, _ := srv.cfg.Registry.Lookup("oodb/volcano")
	rq := OptimizeRequest{Ruleset: world.Name, Query: QuerySpec{Family: "E3", N: 3}, IncludePlan: true}
	var plan *core.Expr
	for range 2 { // a library miss publishes the entry, the hit returns its plan
		tree, req, err := world.Build(rq.Query)
		if err != nil {
			t.Fatal(err)
		}
		o := volcano.NewOptimizer(world.RS)
		o.Opts.Cache = srv.Cache()
		if plan, err = o.OptimizeContext(context.Background(), tree, req); err != nil {
			t.Fatal(err)
		}
	}
	set := false
	for id := core.PropID(0); int(id) < plan.D.Props().Len(); id++ {
		if plan.D.Props().At(id).Kind == core.KindPred {
			plan.D.Set(id, &core.Pred{Op: core.PredLt, Left: core.A("C<1>", "a&b"), Const: core.Int(3)})
			set = true
		}
	}
	body := serve(t, srv, "/v1/optimize", rq).Body.Bytes()
	if !set || !bytes.Contains(body, []byte(`\u003c`)) || bytes.ContainsAny(body, "<>&") {
		t.Fatalf("predicate set=%v; body %.300s", set, body)
	}
	if got := checkBody(t, "escaped", body, refPlans{world: world}, plan, true); !got.CacheHit {
		t.Fatal("the server did not answer from the library caller's entry")
	}
}

// TestFlightSharedBytes: followers parked behind a leader's search are
// answered with the leader's entry and its one rendering.
func TestFlightSharedBytes(t *testing.T) {
	reg, err := DefaultRegistry(6, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range []OptimizeRequest{
		{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E2", N: 5}, IncludePlan: true},
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E2", N: 5}, IncludePlan: true},
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E3", N: 5, Graph: "star"}, IncludePlan: true},
	} {
		ref := reference(t, reg, rq)
		bodies := make([][]byte, 8)
		var wg sync.WaitGroup
		for k := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bodies[k] = serve(t, srv, "/v1/optimize", rq).Body.Bytes()
			}()
		}
		wg.Wait()
		for _, b := range bodies {
			checkBody(t, rq.Query.String(), b, ref, ref.full, true)
		}
	}
	if st := srv.Cache().Snapshot(); st.FlightShared == 0 {
		t.Skipf("no request was parked behind a flight (%+v); nothing shared to check", st)
	}
}

// TestRenderOnce: 32 goroutines hit an entry that was just published;
// its plan is rendered once — every response splices the same backing
// bytes — and all bodies are equal.
func TestRenderOnce(t *testing.T) {
	srv, _ := testServer(t, nil)
	world, _ := srv.cfg.Registry.Lookup("oodb/volcano")
	rq := OptimizeRequest{Ruleset: world.Name, Query: QuerySpec{Family: "E2", N: 4}}
	one := func(rq OptimizeRequest) (*OptimizeResponse, error) {
		p, err := srv.prepare(world, rq)
		if err != nil {
			return nil, err
		}
		r, _, err := srv.optimizeOne(context.Background(), &p, nil)
		return r, err
	}
	if _, err := one(rq); err != nil {
		t.Fatal(err) // the miss publishes the entry and renders its head
	}
	rq.IncludePlan = true
	const n = 32
	resps, bodies := make([]*OptimizeResponse, n), make([]string, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			rq := rq
			rq.Execute = k%2 == 1 // under -race: running the shared plan writes nothing
			r, err := one(rq)
			if err != nil {
				t.Error(err)
				return
			}
			resps[k] = r
			r.ElapsedUS, r.Exec = 0, nil
			b, _ := r.appendJSON(nil)
			bodies[k] = string(b)
		}()
	}
	start.Done()
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := 1; k < n; k++ {
		if &resps[k].head[0] != &resps[0].head[0] || &resps[k].plan[0] != &resps[0].plan[0] {
			t.Fatalf("response %d splices its own rendering: the entry was rendered more than once", k)
		}
		if !resps[k].CacheHit || bodies[k] != bodies[0] {
			t.Fatalf("response %d differs:\n%s\n%s", k, bodies[k], bodies[0])
		}
	}
}

// served is the part of a response the staleness tests compare.
type served struct {
	text, plan string
	cost       float64
	hit        bool
}

func ask(t *testing.T, srv *Server, rq OptimizeRequest) served {
	t.Helper()
	var v struct {
		PlanText string          `json:"plan_text"`
		Plan     json.RawMessage `json:"plan"`
		Cost     float64         `json:"cost"`
		CacheHit bool            `json:"cache_hit"`
	}
	if err := json.Unmarshal(serve(t, srv, "/v1/optimize", rq).Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return served{v.PlanText, string(v.Plan), v.Cost, v.CacheHit}
}

// live is what a search outside the server answers rq with right now.
func live(t *testing.T, reg *Registry, rq OptimizeRequest) served {
	t.Helper()
	ref := reference(t, reg, rq)
	node, err := wire.EncodePlan(ref.full)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(node)
	return served{ref.full.String(), string(b), ref.full.Cost(ref.world.RS.Class), false}
}

// TestRenderingNeverStale: a rendering dies with its entry. The world's
// catalog is changed in place — the cache key does not see it, which is
// what /v1/invalidate is for — and after an invalidation, and after an
// eviction and a library caller's re-insert, the served plan, text and
// cost are those of the live entry, not of bytes rendered for the old
// one.
func TestRenderingNeverStale(t *testing.T) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	world, _ := reg.Lookup("oodb/volcano")
	rq := OptimizeRequest{Ruleset: world.Name, Query: QuerySpec{Family: "E2", N: 4}, IncludePlan: true}
	other := OptimizeRequest{Ruleset: world.Name, Query: QuerySpec{Family: "E1", N: 3}, IncludePlan: true}
	drift := func() {
		for _, name := range world.Cat.Names() {
			cl := world.Cat.MustClass(name)
			for i := range cl.Attrs {
				cl.Attrs[i].Distinct *= 4
			}
		}
	}
	same := func(what string, got, want served) {
		t.Helper()
		got.hit = want.hit
		if got != want {
			t.Fatalf("%s: served %+v, the live entry is %+v", what, got, want)
		}
	}

	before := live(t, reg, rq)
	same("cold", ask(t, srv, rq), before)
	drift()
	after := live(t, reg, rq)
	if after.cost == before.cost {
		t.Fatal("the catalog change did not move the plan's cost; the test pins nothing")
	}
	if got := ask(t, srv, rq); !got.hit {
		t.Fatal("the in-place catalog change reached the cache key; the test pins nothing")
	} else {
		same("hit before invalidation", got, before)
	}
	serve(t, srv, "/v1/invalidate", struct{}{})
	if got := ask(t, srv, rq); got.hit {
		t.Fatal("hit across an invalidation")
	} else {
		same("after invalidation", got, after)
	}
	same("hit after invalidation", ask(t, srv, rq), after)

	// Without an invalidation the server's misses search the epoch's
	// prepared tree, so the re-insert comes from a library caller sharing
	// the cache with a tree built after the drift.
	drift()
	evicted := live(t, reg, rq)
	ask(t, srv, other) // the one-entry cache drops rq
	tree, want, err := world.Build(rq.Query)
	if err != nil {
		t.Fatal(err)
	}
	o := volcano.NewOptimizer(world.RS)
	o.Opts.Cache = srv.Cache()
	if _, err := o.OptimizeContext(context.Background(), tree, want); err != nil || o.Stats.CacheMisses != 1 {
		t.Fatalf("library re-insert: %v, misses=%d", err, o.Stats.CacheMisses)
	}
	if got := ask(t, srv, rq); !got.hit {
		t.Fatal("the server missed the re-inserted entry")
	} else {
		same("hit after eviction and re-insert", got, evicted)
	}
}

// TestPlanConsumersReadOnly: hits hand out the entry's own plan, which
// is sound because nothing that consumes a plan writes it — rendering,
// costing, explaining, encoding, compiling and running it leave every
// node and descriptor as they were. The executor compiles the entry's
// nodes themselves, so two executions of one hit's plan run here at
// once (TestRenderOnce runs the renderers concurrently).
func TestPlanConsumersReadOnly(t *testing.T) {
	srv, _ := testServer(t, nil)
	world, _ := srv.cfg.Registry.Lookup("oodb/volcano")
	rq := OptimizeRequest{Ruleset: world.Name, Query: QuerySpec{Family: "E2", N: 4}, IncludePlan: true, Execute: true}
	ask(t, srv, rq)
	tree, req, err := world.Build(rq.Query)
	if err != nil {
		t.Fatal(err)
	}
	o := volcano.NewOptimizer(world.RS)
	o.Opts.Cache = srv.Cache()
	plan, err := o.OptimizeContext(context.Background(), tree, req)
	if err != nil || o.Stats.CacheHits != 1 {
		t.Fatalf("library hit: %v, hits=%d", err, o.Stats.CacheHits)
	}
	pristine := plan.Clone()
	before := plan.Format()
	ask(t, srv, rq) // String, Cost, EncodePlan, Compile, Run on the entry's plan
	_, _, _ = plan.Explain(world.RS.Class), plan.Algorithms(), plan.Size()
	if _, err := wire.EncodePlan(plan); err != nil {
		t.Fatal(err)
	}
	// The entry's plan executed twice at once: by the server, whose hit
	// compiles the entry's own nodes, and by exec directly. Under the
	// race detector a write to a shared node is a report.
	var wg sync.WaitGroup
	var rows [2]int
	var errs [2]error
	wg.Add(2)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(rq)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
		var v struct {
			CacheHit bool         `json:"cache_hit"`
			Exec     *ExecSummary `json:"exec"`
		}
		if errs[0] = json.Unmarshal(w.Body.Bytes(), &v); errs[0] == nil && (!v.CacheHit || v.Exec == nil) {
			errs[0] = fmt.Errorf("status %d, not an executed hit: %s", w.Code, w.Body)
		}
		if v.Exec != nil {
			rows[0] = v.Exec.Rows
		}
	}()
	go func() {
		defer wg.Done()
		it, err := exec.NewCompiler(world.ExecDB(execSeed, execRows), world.ExecProps).Compile(plan)
		if errs[1] = err; err == nil {
			var res *exec.Result
			if res, errs[1] = exec.Run(it); errs[1] == nil {
				rows[1] = len(res.Rows)
			}
		}
	}()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil || rows[0] != rows[1] {
		t.Fatalf("concurrent executions of the shared plan: server %d rows (%v), exec %d rows (%v)", rows[0], errs[0], rows[1], errs[1])
	}
	if plan.Format() != before || before != pristine.Format() {
		t.Fatalf("a consumer wrote the shared plan:\n%s\nwas\n%s", plan.Format(), before)
	}
}

// TestHitPlanScribbleHarmless: plans handed out by hits are the entry's
// own and read-only by contract; even so, a caller that breaks the
// contract cannot change what the server serves, because the entry's
// bytes were rendered before the scribble.
func TestHitPlanScribbleHarmless(t *testing.T) {
	srv, _ := testServer(t, nil)
	world, _ := srv.cfg.Registry.Lookup("oodb/volcano")
	rq := OptimizeRequest{Ruleset: world.Name, Query: QuerySpec{Family: "E2", N: 3}, IncludePlan: true}
	ask(t, srv, rq)
	want := ask(t, srv, rq)
	if !want.hit {
		t.Fatal("second request missed")
	}
	// A library caller sharing the server's cache gets the entry's plan.
	tree, req, err := world.Build(rq.Query)
	if err != nil {
		t.Fatal(err)
	}
	o := volcano.NewOptimizer(world.RS)
	o.Opts.Cache = srv.Cache()
	plan, err := o.OptimizeContext(context.Background(), tree, req)
	if err != nil || o.Stats.CacheHits != 1 {
		t.Fatalf("library hit: %v, hits=%d", err, o.Stats.CacheHits)
	}
	var scribble func(p *core.Expr)
	scribble = func(p *core.Expr) {
		if p.D != nil {
			p.D.SetFloat(world.RS.Class.Cost, -1)
		}
		for _, k := range p.Kids {
			scribble(k)
		}
		p.File, p.Kids = "scribbled", nil
	}
	scribble(plan)
	if got := ask(t, srv, rq); got != want {
		t.Fatalf("after a scribble on the hit's plan the server serves %+v, before %+v", got, want)
	}
}

// TestExecuteOnHit: "execute": true on a hit still runs the plan, and
// reports the rows the miss reported.
func TestExecuteOnHit(t *testing.T) {
	_, hs := testServer(t, nil)
	rq := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E2", N: 3}, Execute: true, IncludePlan: true}
	miss := optimizeOK(t, hs.URL, rq)
	hit := optimizeOK(t, hs.URL, rq)
	if miss.CacheHit || !hit.CacheHit {
		t.Fatalf("cache_hit %v then %v", miss.CacheHit, hit.CacheHit)
	}
	if miss.Exec == nil || hit.Exec == nil || miss.Exec.Rows == 0 || hit.Exec.Rows != miss.Exec.Rows {
		t.Fatalf("exec on the miss %+v, on the hit %+v", miss.Exec, hit.Exec)
	}
}

// unencodable wraps a descriptor value in a type the wire codec does
// not know.
type unencodable struct{ core.Value }

// TestPlanEncodeError: an include_plan request whose plan cannot be
// encoded is a 500 instead of a 200 without a plan; the same request
// without include_plan is still answered.
func TestPlanEncodeError(t *testing.T) {
	srv, _ := testServer(t, nil)
	world, _ := srv.cfg.Registry.Lookup("oodb/volcano")
	rq := OptimizeRequest{Ruleset: world.Name, Query: QuerySpec{Family: "E1", N: 2}, IncludePlan: true}
	// Publish an entry whose plan holds such a value: a library caller
	// sharing the cache leads the search, and reaches its published clone
	// through a second, hitting run.
	for range 2 {
		tree, req, _ := world.Build(rq.Query)
		o := volcano.NewOptimizer(world.RS)
		o.Opts.Cache = srv.Cache()
		plan, err := o.OptimizeContext(context.Background(), tree, req)
		if err != nil {
			t.Fatal(err)
		}
		for id := core.PropID(0); int(id) < plan.D.Props().Len(); id++ {
			if plan.D.Has(id) {
				plan.D.Set(id, unencodable{plan.D.Get(id)})
			}
		}
	}
	w := httptest.NewRecorder()
	body, _ := json.Marshal(rq)
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("/v1/optimize: status %d: %s", w.Code, w.Body)
	}
	rq.IncludePlan = false
	if got := ask(t, srv, rq); !got.hit || got.text == "" || got.plan != "" {
		t.Fatalf("the request that asked for no plan: %+v", got)
	}
}

// warmServer is a server with optserve's observers whose cache holds
// the returned include_plan request (E2/n4 on the generated rules).
func warmServer(t testing.TB) (*Server, []byte) {
	t.Helper()
	reg, err := DefaultRegistry(6, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Registry: reg}
	observedConfig(&cfg)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rq := OptimizeRequest{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E2", N: 4}, IncludePlan: true}
	serve(t, srv, "/v1/optimize", rq)
	body, _ := json.Marshal(rq)
	return srv, body
}

// TestWarmHitAllocCeiling holds the allocations of a warm include_plan
// hit through the whole handler, request and recorder included: 556
// before plans were rendered once per entry, 187 before the world kept
// its prepared queries, 69 while the record kept a phase timeline, 65
// while the request log boxed its fields for a level that drops them.
func TestWarmHitAllocCeiling(t *testing.T) {
	const ceiling = 71 // ≈15% above the 62 measured
	srv, body := warmServer(t)
	n := testing.AllocsPerRun(200, func() {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	})
	if n > ceiling {
		t.Errorf("a warm hit allocates %.0f times, ceiling %d", n, ceiling)
	}
	t.Logf("a warm hit allocates %.0f times (ceiling %d)", n, ceiling)
}

func BenchmarkWarmHit(b *testing.B) {
	srv, body := warmServer(b)
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
