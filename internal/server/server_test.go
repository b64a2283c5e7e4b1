package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"prairie/internal/core"
	"prairie/internal/obs"
	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

// testServer stands up a service over the default worlds on a small
// catalog (fast) with the given config overrides applied.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Registry: reg}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func optimizeOK(t *testing.T, base string, req OptimizeRequest) OptimizeResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize %v: status %d: %s", req.Query, resp.StatusCode, body)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatalf("optimize %v: %v", req.Query, err)
	}
	return or
}

// TestOptimizeEveryWorld: every registered world answers a basic query
// and a repeat of the same request is served from the shared cache with
// an identical plan.
func TestOptimizeEveryWorld(t *testing.T) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			req := OptimizeRequest{Ruleset: name, Query: QuerySpec{Family: "E1", N: 3}}
			cold := optimizeOK(t, hs.URL, req)
			if cold.PlanText == "" {
				t.Fatal("empty plan_text")
			}
			if cold.CacheHit {
				t.Error("first request reported cache_hit")
			}
			if cold.Stats.Exprs == 0 {
				t.Error("stats missing from cold response")
			}
			warm := optimizeOK(t, hs.URL, req)
			if !warm.CacheHit {
				t.Error("repeat request was not a cache hit")
			}
			if warm.PlanText != cold.PlanText {
				t.Errorf("cache hit plan differs:\nwarm: %s\ncold: %s", warm.PlanText, cold.PlanText)
			}
			if warm.Cost != cold.Cost {
				t.Errorf("cache hit cost %g != cold %g", warm.Cost, cold.Cost)
			}
		})
	}
}

// TestOptimizeBudgetClasses: the "tiny" class degrades a hard query and
// says so on the wire; an unknown class is a 400; degraded plans carry a
// cause and path.
func TestOptimizeBudgetClasses(t *testing.T) {
	_, hs := testServer(t, nil)

	or := optimizeOK(t, hs.URL, OptimizeRequest{
		Ruleset: "oodb/volcano",
		Query:   QuerySpec{Family: "E4", N: 3},
		Budget:  "tiny",
	})
	if !or.Degraded {
		t.Skip("E4 n=3 fits in MaxExprs=400; budget no longer degrades it")
	}
	if or.DegradeCause == "" || or.DegradePath == "" {
		t.Errorf("degraded response missing cause/path: %+v", or)
	}
	if or.PlanText == "" {
		t.Error("degraded response missing plan")
	}

	resp, body := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{
		Ruleset: "oodb/volcano",
		Query:   QuerySpec{Family: "E1", N: 3},
		Budget:  "no-such-class",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown budget: status %d: %s", resp.StatusCode, body)
	}
}

// TestOptimizeErrors: malformed requests are 4xx with a JSON error and
// never a partial plan.
func TestOptimizeErrors(t *testing.T) {
	_, hs := testServer(t, nil)
	cases := []struct {
		name string
		req  OptimizeRequest
		want int
	}{
		{"unknown ruleset", OptimizeRequest{Ruleset: "nope", Query: QuerySpec{Family: "E1", N: 3}}, http.StatusNotFound},
		{"unknown family", OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E9", N: 3}}, http.StatusBadRequest},
		{"n too large", OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 40}}, http.StatusBadRequest},
		{"n too small", OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 1}}, http.StatusBadRequest},
		{"bad graph", OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3, Graph: "mesh"}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, hs.URL+"/v1/optimize", c.req)
			if resp.StatusCode != c.want {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, c.want, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("error body not JSON with error field: %s", body)
			}
			if strings.Contains(string(body), "plan_text") {
				t.Errorf("error response leaked a plan: %s", body)
			}
		})
	}

	// Non-JSON body.
	resp, err := http.Post(hs.URL+"/v1/optimize", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(hs.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET optimize: status %d", resp.StatusCode)
	}
}

// TestBatch: a mixed batch comes back index-aligned, duplicate items
// collapse through the shared cache, and per-item failures don't fail
// their neighbours.
func TestBatch(t *testing.T) {
	_, hs := testServer(t, nil)
	items := []OptimizeRequest{
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}},
		{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E2", N: 3}},
		{Ruleset: "relational", Query: QuerySpec{Family: "E3", N: 3}},
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}}, // dup of [0]
	}
	resp, body := postJSON(t, hs.URL+"/v1/batch", BatchRequest{Items: items, Workers: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(items) {
		t.Fatalf("got %d results for %d items", len(br.Results), len(items))
	}
	for i, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("item %d: %s", i, r.Error)
		}
		if r.Ruleset != items[i].Ruleset {
			t.Errorf("item %d: answered by %s, want %s", i, r.Ruleset, items[i].Ruleset)
		}
		if r.PlanText == "" {
			t.Errorf("item %d: empty plan", i)
		}
	}
	if br.Results[0].PlanText != br.Results[3].PlanText {
		t.Error("duplicate items got different plans")
	}
	if br.Errors != 0 {
		t.Errorf("batch reports %d errors", br.Errors)
	}

	// A malformed item fails the whole batch up front with 4xx.
	items[1].Query.Family = "E9"
	resp, body = postJSON(t, hs.URL+"/v1/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad item: status %d: %s", resp.StatusCode, body)
	}
}

// TestRulesetsAndHealth: discovery and liveness endpoints.
func TestRulesetsAndHealth(t *testing.T) {
	srv, hs := testServer(t, nil)

	resp, err := http.Get(hs.URL + "/v1/rulesets")
	if err != nil {
		t.Fatal(err)
	}
	var rl struct {
		Rulesets []rulesetInfo `json:"rulesets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rl.Rulesets) != 3 {
		t.Fatalf("got %d rulesets, want 3: %+v", len(rl.Rulesets), rl)
	}
	for _, info := range rl.Rulesets {
		if len(info.Budgets) == 0 || info.MaxN < 2 {
			t.Errorf("ruleset %+v incomplete", info)
		}
	}

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}

	srv.BeginDrain()
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d", resp.StatusCode)
	}
}

// TestInvalidate bumps the cache epoch over the wire: the next request
// is a fresh miss but still returns the identical plan.
func TestInvalidate(t *testing.T) {
	_, hs := testServer(t, nil)
	req := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}}
	cold := optimizeOK(t, hs.URL, req)
	if hit := optimizeOK(t, hs.URL, req); !hit.CacheHit {
		t.Fatal("expected a cache hit before invalidation")
	}

	resp, body := postJSON(t, hs.URL+"/v1/invalidate", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: status %d: %s", resp.StatusCode, body)
	}
	var ep map[string]uint64
	if err := json.Unmarshal(body, &ep); err != nil || ep["epoch"] == 0 {
		t.Fatalf("invalidate response: %s", body)
	}

	after := optimizeOK(t, hs.URL, req)
	if after.CacheHit {
		t.Error("request after invalidation was served from the stale epoch")
	}
	if after.PlanText != cold.PlanText {
		t.Errorf("plan changed across invalidation:\nafter: %s\ncold:  %s", after.PlanText, cold.PlanText)
	}
}

// TestMetricsExposed: the obs surface is mounted on the service mux and
// server counters appear in the Prometheus text.
func TestMetricsExposed(t *testing.T) {
	ob := &obs.Observer{Metrics: obs.NewRegistry()}
	_, hs := testServer(t, func(c *Config) { c.Obs = ob })
	optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}})

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{"prairie_server_requests_total 1", "prairie_server_optimize_seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestShardMetrics: the per-shard gauges bench reads as
// plancache.evictions are refreshed at scrape time and add up to the
// cache's own counts.
func TestShardMetrics(t *testing.T) {
	srv, hs := testServer(t, func(c *Config) {
		c.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
		c.CacheSize = 4
	})
	for _, fam := range []string{"E1", "E2", "E3"} {
		for n := 2; n <= 4; n++ {
			optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: fam, N: n}})
		}
	}
	_, text := getJSONBody(t, hs.URL+"/metrics")
	sum := func(name string) (total float64) {
		for _, line := range strings.Split(string(text), "\n") {
			if rest, ok := strings.CutPrefix(line, name+`{shard="`); ok {
				v, err := strconv.ParseFloat(rest[strings.IndexByte(rest, ' ')+1:], 64)
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				total += v
			}
		}
		return total
	}
	st := srv.Cache().Snapshot()
	if st.Evictions == 0 {
		t.Fatalf("nine queries through a 4-entry cache evicted nothing: %+v", st)
	}
	if got := sum("prairie_plancache_shard_entries"); got != float64(st.Entries) {
		t.Errorf("shard entries sum to %g, cache holds %d", got, st.Entries)
	}
	if got := sum("prairie_plancache_shard_evictions"); got != float64(st.Evictions) {
		t.Errorf("shard evictions sum to %g, cache evicted %d", got, st.Evictions)
	}
}

// TestNoPeerEndpoints: the cluster layer is gone, so a request shaped
// like a peer RPC — cluster key header and all — finds no endpoint, and
// /healthz reports no cluster membership.
func TestNoPeerEndpoints(t *testing.T) {
	srv, hs := testServer(t, nil)
	r, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/peer/get",
		strings.NewReader(`{"world":"oodb/volcano","fp":1,"canon":"q","epoch":0}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("X-Prairie-Cluster-Key", "test-secret")
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/peer/get: status %d, want 404", resp.StatusCode)
	}
	if st := srv.Cache().Snapshot(); st.Hits+st.Misses != 0 {
		t.Errorf("a peer-shaped request reached the plan cache: %+v", st)
	}
	_, body := getJSONBody(t, hs.URL+"/healthz")
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if _, ok := h["cluster"]; ok {
		t.Errorf("/healthz still reports a cluster: %s", body)
	}
}

// TestRequestTimeoutDegrades: a tight per-request deadline makes the
// search degrade gracefully — 200 with degraded=true, not an error, and
// the plan is complete.
func TestRequestTimeoutDegrades(t *testing.T) {
	_, hs := testServer(t, nil)
	or := optimizeOK(t, hs.URL, OptimizeRequest{
		Ruleset:   "oodb/volcano",
		Query:     QuerySpec{Family: "E4", N: 4},
		TimeoutMS: 1,
	})
	if !or.Degraded {
		t.Skip("E4 n=4 finished within 1ms; cannot exercise the deadline path on this machine")
	}
	if or.PlanText == "" {
		t.Error("degraded response missing plan")
	}
	if or.DegradeCause == "" {
		t.Error("degraded response missing cause")
	}
}

// TestPanicIsolation: a panicking request is answered 500, its flight
// record completes with the panic text — the X-Request-Id the client got
// resolves — and the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	world, _ := reg.Lookup("oodb/volcano")
	boom := &World{
		Name: "boom",
		RS:   world.RS,
		MaxN: world.MaxN,
		Build: func(q QuerySpec) (*core.Expr, *core.Descriptor, error) {
			panic("synthetic build failure")
		},
	}
	reg.Add(boom)
	srv, err := New(Config{
		Registry: reg,
		Obs:      &obs.Observer{Metrics: obs.NewRegistry()},
		Flight:   obs.NewFlightRecorder(obs.FlightConfig{Capacity: 8, SlowThreshold: time.Nanosecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, body := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Ruleset: "boom", Query: QuerySpec{Family: "E1", N: 3}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "synthetic build failure") {
		t.Errorf("panic not surfaced: %s", body)
	}
	rec := fetchRecord(t, hs.URL, resp.Header.Get("X-Request-Id"))
	if rec.Status != http.StatusInternalServerError || rec.Outcome != "error" || !strings.Contains(rec.Error, "synthetic build failure") {
		t.Errorf("panicking request's flight record: %+v", rec)
	}
	// Server still serves.
	optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}})
	if got := srv.mPanics.Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

// batchOK posts a batch and decodes its 200 answer.
func batchOK(t *testing.T, base string, req BatchRequest) BatchResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	return br
}

// TestBatchPanicIsolation: a batch item whose rule hook panics carries
// the panic as its own error; its neighbours get their plans, positions
// hold, and the server keeps serving.
func TestBatchPanicIsolation(t *testing.T) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	boom := OODBVolcanoWorld(qgen.Catalog(4, 101, false), 4)
	boom.Name = "boom"
	for _, r := range boom.RS.Trans {
		r.Cond = func(*volcano.TBinding) bool { panic("boom: injected rule-hook failure") }
	}
	reg.Add(boom)
	srv, err := New(Config{Registry: reg, Obs: &obs.Observer{Metrics: obs.NewRegistry()}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	q := QuerySpec{Family: "E1", N: 3}
	br := batchOK(t, hs.URL, BatchRequest{Workers: 2, Items: []OptimizeRequest{
		{Ruleset: "oodb/volcano", Query: q},
		{Ruleset: "boom", Query: q},
		{Ruleset: "oodb/prairie", Query: q},
	}})
	for i, r := range br.Results {
		if i == 1 {
			if !strings.Contains(r.Error, "injected rule-hook failure") || r.OptimizeResponse != nil {
				t.Errorf("item 1: %+v, want the surfaced panic and no plan", r)
			}
			continue
		}
		if r.Error != "" || r.PlanText == "" {
			t.Errorf("item %d: error %q, plan %q", i, r.Error, r.PlanText)
		}
	}
	if br.Errors != 1 {
		t.Errorf("batch reports %d errors, want 1", br.Errors)
	}
	optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: "oodb/volcano", Query: q})
	if got := srv.mPanics.Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

// TestBatchSharesCacheWithOptimize: /v1/batch keys the cache exactly as
// /v1/optimize does — a query one endpoint cached hits on the other, and
// an item's timeout_ms is no part of the key.
func TestBatchSharesCacheWithOptimize(t *testing.T) {
	srv, hs := testServer(t, nil)
	req := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}}
	optimizeOK(t, hs.URL, req)
	if br := batchOK(t, hs.URL, BatchRequest{Items: []OptimizeRequest{req}}); !br.Results[0].CacheHit {
		t.Error("a query /v1/optimize cached missed on /v1/batch")
	}
	if n := srv.Cache().Len(); n != 1 {
		t.Errorf("cache holds %d entries after the batch, want 1", n)
	}
	req.TimeoutMS = 7000
	if br := batchOK(t, hs.URL, BatchRequest{Items: []OptimizeRequest{req}}); !br.Results[0].CacheHit {
		t.Error("an item's timeout_ms fragmented the cache")
	}
	if n := srv.Cache().Len(); n != 1 {
		t.Errorf("cache holds %d entries after a batch with timeout_ms, want 1", n)
	}
}

// TestBatchExecutes: a batch item's "execute": true runs the plan and
// reports the rows /v1/optimize reports.
func TestBatchExecutes(t *testing.T) {
	_, hs := testServer(t, nil)
	req := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E2", N: 3}, Execute: true}
	one := optimizeOK(t, hs.URL, req)
	br := batchOK(t, hs.URL, BatchRequest{Items: []OptimizeRequest{req}})
	if one.Exec == nil || one.Exec.Rows == 0 {
		t.Fatalf("/v1/optimize exec: %+v", one.Exec)
	}
	if got := br.Results[0].Exec; got == nil || got.Rows != one.Exec.Rows {
		t.Errorf("batch item exec %+v, /v1/optimize %+v", got, one.Exec)
	}
}

// TestBatchPerItemTimeout: an item's timeout_ms bounds that item alone —
// it degrades on its deadline and says so, its neighbour completes.
func TestBatchPerItemTimeout(t *testing.T) {
	_, hs := testServer(t, nil)
	br := batchOK(t, hs.URL, BatchRequest{Workers: 2, Items: []OptimizeRequest{
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E4", N: 4}, TimeoutMS: 1},
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}},
	}})
	if r := br.Results[1]; r.Error != "" || r.Degraded || r.PlanText == "" {
		t.Errorf("untimed neighbour: %+v", r)
	}
	r := br.Results[0]
	if r.Error != "" {
		t.Fatalf("timed-out item errored instead of degrading: %s", r.Error)
	}
	if !r.Degraded {
		t.Skip("E4 n=4 finished within 1ms; cannot exercise the deadline path on this machine")
	}
	if r.PlanText == "" || r.DegradeCause != "deadline" || br.Degraded != 1 {
		t.Errorf("want a degraded deadline plan counted once, got %+v (batch degraded=%d)", r, br.Degraded)
	}
}

// TestBatchContextCancelled: once the client is gone, items not yet
// started fail fast with the context's error instead of searching.
func TestBatchContextCancelled(t *testing.T) {
	srv, _ := testServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(BatchRequest{Items: []OptimizeRequest{
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}},
		{Ruleset: "relational", Query: QuerySpec{Family: "E1", N: 2}},
	}})
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)).WithContext(ctx))
	var br BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
		t.Fatalf("status %d: %v: %s", w.Code, err, w.Body)
	}
	for i, r := range br.Results {
		if !strings.Contains(r.Error, context.Canceled.Error()) {
			t.Errorf("item %d: %+v, want context canceled", i, r)
		}
	}
	if br.Errors != 2 || srv.Cache().Len() != 0 {
		t.Errorf("errors=%d cache=%d, want 2 and nothing searched", br.Errors, srv.Cache().Len())
	}
}

// TestBudgetClassSharesCache: per-request timeouts must not fragment
// the cache (only Budget values key it): two different timeout_ms values
// on the same query share one entry.
func TestBudgetClassSharesCache(t *testing.T) {
	srv, hs := testServer(t, nil)
	req := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}, TimeoutMS: 10000}
	optimizeOK(t, hs.URL, req)
	req.TimeoutMS = 20000
	warm := optimizeOK(t, hs.URL, req)
	if !warm.CacheHit {
		t.Error("different timeout_ms fragmented the cache")
	}
	if srv.Cache().Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", srv.Cache().Len())
	}

	// Distinct budget classes DO key separately (different search
	// effort may legitimately produce different plans).
	req.Budget = "batch"
	cold := optimizeOK(t, hs.URL, req)
	if cold.CacheHit {
		t.Error("different budget class hit the other class's entry")
	}
}
