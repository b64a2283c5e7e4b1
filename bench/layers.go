package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/obs"
	"prairie/internal/p2v"
	"prairie/internal/plancache"
	"prairie/internal/prairielang"
	"prairie/internal/server"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// This file is the traced run: the same programs as the untraced
// workload, in-process, each one taken through every layer in turn on
// the same input — world.Build, Fingerprint, a cold and a cached
// OptimizeContext, PExpr.String, wire.EncodePlan, the HTTP handler, a
// loopback round trip, Compile, Run — with a span around each call. The
// per-layer metrics are medians of those spans, a few counters, and a
// few micro-probes of layers too fast to time per call. Every workload
// reports the same set, measured on its own pool; what a workload does
// not exercise is predicted not to move its end-to-end numbers.

// allocsPer returns the heap allocations of one call of f, averaged
// over n calls.
func allocsPer(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// nsPer is the mean time of one call of f over n calls, for calls too
// short to stamp one by one.
func nsPer(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// inproc is an in-process server the way optserve configures it.
type inproc struct {
	srv *server.Server
}

// newInproc mirrors optserve's defaults when observed (metrics, a
// drop-oldest tracer, a 512-record flight recorder, an info-level
// logger) and strips all four otherwise.
func newInproc(reg *server.Registry, cacheSize int, observed bool) (*inproc, error) {
	cfg := server.Config{Registry: reg, CacheSize: cacheSize}
	if observed {
		metrics := obs.NewRegistry()
		tracer := obs.NewTracer()
		tracer.DropOldest = true
		cfg.Obs = &obs.Observer{Metrics: metrics, Tracer: tracer}
		cfg.Flight = obs.NewFlightRecorderObserved(obs.FlightConfig{Capacity: 512}, metrics)
		cfg.Log = obs.NewLogger(io.Discard, obs.LevelInfo)
	}
	srv, err := server.New(cfg)
	return &inproc{srv}, err
}

// serve pushes one request body through the handler without a socket.
func (ip *inproc) serve(body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
	w := httptest.NewRecorder()
	ip.srv.Handler().ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// get fetches one of the server's own exposition paths.
func (ip *inproc) get(path string) string {
	w := httptest.NewRecorder()
	ip.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Body.String()
}

// promValue returns the value of one un-labelled sample, or the sum of
// every sample of a labelled family, from Prometheus text.
func promValue(text, name string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// tracedRun is the state the traced phases share.
type tracedRun struct {
	cfg   config
	e     *env
	rec   *recorder
	dbs   map[string]*data.DB // execRows database per world, built on first use
	refs  map[program]answer
	plans map[program]*volcano.PExpr
	// roundTime is the wall time of each pipeline round's operations,
	// recorded rounds in [0] and unrecorded ones in [1].
	roundTime [2][]time.Duration
	// Rule-timed search totals over the pipeline.
	transTime, implTime time.Duration
	perRule             map[string]time.Duration
	ruleRuns            int
	// Greedy-versus-full cost ratios, one per operation.
	greedyRatio []float64
	rowsOut     int
}

func (t *tracedRun) bigDB(w *server.World) *data.DB {
	db := t.dbs[w.Name]
	if db == nil {
		db = data.Populate(w.Cat, catalogSeed, execRows)
		t.dbs[w.Name] = db
	}
	return db
}

// operation takes one program through every layer. observed/bare are
// primed with the program, so their timed request is a cache hit.
func (t *tracedRun) operation(op int, i int, observed, bare *inproc, loop *poster) error {
	p, body := t.cfg.Workload.Pool[i], loop.bodies[i]
	// The server builds a tree per request and hands it to one search;
	// so does this: each further search gets its own tree, built before
	// the operation's clock starts.
	type built struct {
		tree *core.Expr
		want *core.Descriptor
	}
	var extra [3]built
	for k := range extra {
		_, tree, want, err := t.e.build(p)
		if err != nil {
			return err
		}
		extra[k] = built{tree, want}
	}
	ctx := context.Background()
	rec := t.rec
	var err error
	fail := func(what string, e error) {
		if e != nil && err == nil {
			err = fmt.Errorf("%s: %s: %w", p, what, e)
		}
	}

	start := time.Now()
	root := rec.begin("op", -1, op)
	var (
		w    *server.World
		tree *core.Expr
		want *core.Descriptor
	)
	rec.timed("server.world_build", root, op, func() {
		var e error
		w, tree, want, e = t.e.build(p)
		fail("build", e)
	})
	if err != nil {
		return err
	}
	rec.timed("volcano.fingerprint", root, op, func() { w.RS.Fingerprint(tree) })

	// A fresh cache per operation makes the first search a certain miss
	// (search + Put) and the second a certain hit.
	pc := volcano.NewPlanCache(512)
	var plan *volcano.PExpr
	rec.timed("volcano.optimize_miss", root, op, func() {
		o := volcano.NewOptimizer(w.RS)
		o.Opts.Cache = pc
		var e error
		plan, e = o.OptimizeContext(ctx, tree, want)
		fail("cold search", e)
	})
	rec.timed("volcano.optimize_hit", root, op, func() {
		o := volcano.NewOptimizer(w.RS)
		o.Opts.Cache = pc
		var e error
		plan, e = o.OptimizeContext(ctx, extra[0].tree, extra[0].want)
		fail("cached search", e)
		if e == nil && o.Stats.CacheHits == 0 {
			fail("cached search", fmt.Errorf("missed a cache the same query had just filled"))
		}
	})
	if err != nil {
		return err
	}
	var text string
	rec.timed("volcano.plan_string", root, op, func() { text = plan.String() })
	var encoded []byte
	rec.timed("wire.encode_plan", root, op, func() {
		var e error
		encoded, e = wirePlan(plan)
		fail("encode", e)
	})
	if ref := t.refs[p]; err == nil && (text != ref.PlanText || string(encoded) != ref.PlanJSON) {
		fail("cached plan", fmt.Errorf("%s differs from verified reference %s", text, ref.PlanText))
	}

	var status int
	rec.timed("server.handler", root, op, func() { status, _ = observed.serve(body) })
	if status != http.StatusOK {
		fail("handler", fmt.Errorf("status %d", status))
	}
	rec.timed("server.handler_noobs", root, op, func() { status, _ = bare.serve(body) })
	if status != http.StatusOK {
		fail("bare handler", fmt.Errorf("status %d", status))
	}
	var buf bytes.Buffer
	rec.timed("http.roundtrip", root, op, func() {
		_, st, v, e := loop.post(i, &buf)
		fail("loopback", e)
		if e == nil && (st != http.StatusOK || !v.matches(t.refs[p])) {
			fail("loopback", fmt.Errorf("status %d, plan %s", st, v.PlanText))
		}
	})

	var greedy *volcano.PExpr
	rec.timed("volcano.greedy_plan", root, op, func() {
		var e error
		greedy, e = volcano.GreedyPlan(w.RS, extra[1].tree, extra[1].want)
		fail("greedy", e)
	})
	if err == nil {
		t.greedyRatio = append(t.greedyRatio, greedy.Cost(w.RS.Class)/plan.Cost(w.RS.Class))
	}
	rec.timed("volcano.search_ruletimed", root, op, func() {
		o := volcano.NewOptimizer(w.RS)
		o.Opts.Obs = &obs.Observer{RuleTiming: true}
		_, e := o.Optimize(extra[2].tree, extra[2].want)
		fail("rule-timed search", e)
		for rule, d := range o.Stats.TransTime {
			t.transTime += d
			t.perRule[rule] += d
		}
		for _, d := range o.Stats.ImplTime {
			t.implTime += d
		}
		t.ruleRuns++
	})

	if w.Cat != nil && err == nil {
		db := t.bigDB(w)
		var it exec.Iterator
		rec.timed("exec.compile", root, op, func() {
			var e error
			it, e = exec.NewCompiler(db, w.ExecProps).Compile(plan.ToExpr())
			fail("compile", e)
		})
		if err == nil {
			rec.timed("exec.run", root, op, func() {
				res, e := exec.Run(it)
				fail("run", e)
				if e == nil {
					t.rowsOut += len(res.Rows)
				}
			})
		}
	}
	rec.end(root)
	side := 0
	if !rec.on {
		side = 1
	}
	rounds := t.roundTime[side]
	rounds[len(rounds)-1] += time.Since(start)
	return err
}

// replay sends the workload's own request order (the seeded cycle for a
// service workload, rounds for a library one) through a fresh observed
// server over loopback for d, and reads the cache and admission
// counters the requests left behind. Each loopback request that hit is
// followed by the same request straight into the handler; the pairwise
// difference is what the socket, net/http and the client add.
func (t *tracedRun) replay(d time.Duration, m map[string]sample) error {
	wl := t.cfg.Workload
	ip, err := newInproc(t.e.reg, wl.CacheSize, true)
	if err != nil {
		return err
	}
	hs := httptest.NewServer(ip.srv.Handler())
	defer hs.Close()
	loop, err := newPoster(hs.URL, wl.Pool)
	if err != nil {
		return err
	}
	defer loop.close()
	order, at := requestCycle(wl.Pool), cycleStart(t.cfg.Seed)
	if !wl.Service {
		order, at = order[:0], 0
		for i := range wl.Pool {
			order = append(order, i)
		}
	}
	var buf bytes.Buffer
	sent, failed := 0, 0
	var overhead []float64
	deadline := time.Now().Add(d)
	for len(overhead) == 0 || time.Now().Before(deadline) {
		i := order[(at+sent)%len(order)]
		lat, status, v, err := loop.post(i, &buf)
		sent++
		switch {
		case err != nil || status != http.StatusOK || !v.matches(t.refs[wl.Pool[i]]):
			failed++
		case v.CacheHit:
			t0 := time.Now()
			ip.serve(loop.bodies[i])
			overhead = append(overhead, us(lat-time.Since(t0)))
		}
		if sent == failed && sent >= len(order) {
			return fmt.Errorf("replay: none of %d requests succeeded", sent)
		}
	}
	text := ip.get("/metrics")
	m["plancache.hit_rate"] = sample{float64(len(overhead)) / float64(sent), "ratio", sent}
	m["server.http_overhead_us"] = sample{median(overhead), "us", len(overhead)}
	m["plancache.evictions"] = sample{promValue(text, "prairie_plancache_shard_evictions"), "count", sent}
	m["server.sheds"] = sample{promValue(text, "prairie_server_shed_queue_full_total") + promValue(text, "prairie_server_shed_queue_wait_total"), "count", sent}
	m["server.errors"] = sample{promValue(text, "prairie_server_errors_total") + float64(failed), "count", sent}
	return nil
}

// paperProbe times the paper's six queries on the Prairie-generated and
// the hand-coded rule sets, the two sides alternating so that a drift in
// the host's speed hits both, and reports each query's median(prairie) /
// median(volcano) — the paper's claim is 1.05 — and the two rule sets'
// allocation ratio, which the paper blames for the gap. The first round
// counts allocations (reading MemStats stops the world, so it is kept
// out of the timed rounds) and sizes the repetitions: a 1 ms query is
// repeated until it has had about as much time as a 100 ms one.
func (t *tracedRun) paperProbe(rounds int, m map[string]sample) error {
	search := func(p program, countAllocs bool) (time.Duration, uint64, error) {
		w, tree, want, err := t.e.build(p)
		if err != nil {
			return 0, 0, err
		}
		o := volcano.NewOptimizer(w.RS)
		var m0, m1 runtime.MemStats
		if countAllocs {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		_, err = o.Optimize(tree, want)
		d := time.Since(t0)
		if countAllocs {
			runtime.ReadMemStats(&m1)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", p, err)
		}
		return d, m1.Mallocs - m0.Mallocs, nil
	}
	allocs := map[string]uint64{}
	reps := map[string]int{}
	for _, q := range paperSet {
		for _, world := range []string{oodbPrairie, oodbVolcano} {
			d, n, err := search(program{world, q}, true)
			if err != nil {
				return err
			}
			allocs[world] += n
			reps[paperName(q)] = min(max(int(30*time.Millisecond/d), 1), 10)
		}
	}
	lat := map[program][]float64{}
	runtime.GC()
	for r := 0; r < rounds; r++ {
		for _, q := range paperSet {
			for k := 0; k < reps[paperName(q)]; k++ {
				for _, world := range []string{oodbPrairie, oodbVolcano} {
					p := program{world, q}
					d, _, err := search(p, false)
					if err != nil {
						return err
					}
					lat[p] = append(lat[p], us(d))
				}
			}
		}
	}
	var ratios []float64
	for _, q := range paperSet {
		pl := lat[program{oodbPrairie, q}]
		r := median(pl) / median(lat[program{oodbVolcano, q}])
		ratios = append(ratios, r)
		m["volcano.pv_ratio."+paperName(q)] = sample{r, "ratio", len(pl)}
	}
	m["volcano.pv_ratio.geomean"] = sample{geomean(ratios), "ratio", len(ratios)}
	m["volcano.pv_allocs_ratio"] = sample{float64(allocs[oodbPrairie]) / float64(allocs[oodbVolcano]), "ratio", len(paperSet)}
	return nil
}

// microProbes times the layers one call of which is too short to stamp.
func (t *tracedRun) microProbes(n int, m map[string]sample) error {
	const capacity = 512
	key := func(i int) plancache.Key {
		return plancache.Key{Fingerprint: uint64(i) * 0x9e3779b97f4a7c15, Canon: fmt.Sprintf("q%d", i), Scope: 1}
	}
	keys := make([]plancache.Key, capacity+n)
	for i := range keys {
		keys[i] = key(i)
	}
	c := plancache.New[int](capacity)
	for i := 0; i < capacity; i++ {
		c.Put(keys[i], i)
	}
	m["plancache.get_ns"] = sample{nsPer(n, func(i int) { c.Get(keys[i%capacity]) }), "ns", n}
	// The cache is full, so every insert of a new key evicts.
	m["plancache.put_evict_ns"] = sample{nsPer(n, func(i int) { c.Put(keys[capacity+i], i) }), "ns", n}

	fr := obs.NewFlightRecorderObserved(obs.FlightConfig{Capacity: 512}, obs.NewRegistry())
	m["obs.flight_begin_complete_ns"] = sample{nsPer(n, func(int) { fr.Complete(fr.Begin("")) }), "ns", n}

	// The peer payload: the only cluster-path number. Two nodes and a
	// client on two cores would measure the scheduler, not the cluster.
	var trips []float64
	for _, p := range t.cfg.Workload.Pool {
		w, err := t.e.world(p.World)
		if err != nil {
			return err
		}
		entry := volcano.RemoteEntry{Plan: t.plans[p], Cost: t.refs[p].Cost}
		t0 := time.Now()
		b, err := wire.EncodeEntry(entry)
		if err == nil {
			_, err = wire.DecodeEntry(w.RS.Algebra, b)
		}
		if err != nil {
			return fmt.Errorf("%s: cache entry round trip: %w", p, err)
		}
		trips = append(trips, us(time.Since(t0)))
	}
	m["wire.entry_roundtrip_us"] = sample{median(trips), "us", len(trips)}
	return nil
}

// setupLayers times the layers set-up consists of, each on its own.
func setupLayers(cfg config, m map[string]sample) (*env, error) {
	src, err := dslSource(cfg.Root)
	if err != nil {
		return nil, err
	}
	var parse, translate, registry, populate []float64
	var e *env
	for i := 0; i < cfg.Workload.SetupReps; i++ {
		t0 := time.Now()
		rs, err := prairielang.ParseAndCompile(src, dslHelpers())
		if err != nil {
			return nil, err
		}
		parse = append(parse, ms(time.Since(t0)))
		t0 = time.Now()
		if _, _, err := p2v.Translate(rs); err != nil {
			return nil, err
		}
		translate = append(translate, ms(time.Since(t0)))

		t0 = time.Now()
		if e, err = newEnv(cfg); err != nil {
			return nil, err
		}
		registry = append(registry, ms(time.Since(t0)))
		w, err := e.world(oodbVolcano)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		data.Populate(w.Cat, catalogSeed, execRows)
		populate = append(populate, ms(time.Since(t0)))
	}
	m["prairielang.parse_compile_ms"] = sample{median(parse), "ms", len(parse)}
	m["p2v.translate_ms"] = sample{median(translate), "ms", len(translate)}
	m["server.registry_ms"] = sample{median(registry), "ms", len(registry)}
	m["data.populate_ms"] = sample{median(populate), "ms", len(populate)}
	// The generated OODB rule set's size: a P2V merge regression inflates
	// matching work before any timing shows it.
	pw, err := e.world(oodbPrairie)
	if err != nil {
		return nil, err
	}
	m["p2v.trans_rules"] = sample{float64(len(pw.RS.Trans)), "count", 1}
	m["p2v.impl_rules"] = sample{float64(len(pw.RS.Impls)), "count", 1}
	return e, nil
}

// searchCounterMetrics reports one cold search per program, summed.
func searchCounterMetrics(c searchCounters, n int, m map[string]sample) {
	m["volcano.groups"] = sample{float64(c.Groups), "count", n}
	m["volcano.exprs"] = sample{float64(c.Exprs), "count", n}
	m["volcano.merges"] = sample{float64(c.Merges), "count", n}
	m["volcano.trans_fired"] = sample{float64(c.TransFired), "count", n}
	m["volcano.costed_plans"] = sample{float64(c.CostedPlans), "count", n}
	m["volcano.pruned"] = sample{float64(c.Pruned), "count", n}
	m["volcano.prune_ratio"] = sample{float64(c.Pruned) / float64(c.CostedPlans), "ratio", n}
	m["volcano.memo_bytes"] = sample{float64(c.MemoBytes), "bytes", n}
	m["volcano.plan_cost_sum"] = sample{c.CostSum, "cost", n}
}

// pipeline runs rounds of operations over the pool for d, the recorder
// on in even rounds and off in odd ones (at least one of each).
func (t *tracedRun) pipeline(d time.Duration, observed, bare *inproc, loop *poster, out *outcome) error {
	deadline := time.Now().Add(d)
	cal := newCalibrator(true)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		t.rec.on = round%2 == 0
		t.roundTime[round%2] = append(t.roundTime[round%2], 0)
		for i, p := range t.cfg.Workload.Pool {
			// Untimed: make sure both servers hold the program, so the
			// timed request measures the hit path even where the pool
			// outgrows the cache.
			if st, body := observed.serve(loop.bodies[i]); st != http.StatusOK {
				return fmt.Errorf("%s: priming the in-process server: status %d: %s", p, st, body)
			}
			bare.serve(loop.bodies[i])
			cal.tick()
			err := t.operation(out.Attempted, i, observed, bare, loop)
			out.Attempted++
			if err != nil {
				out.Failed++
				if out.Err == nil {
					out.Err = err
				}
			}
		}
	}
	if out.Attempted == out.Failed {
		return fmt.Errorf("no traced operation succeeded: %v", out.Err)
	}
	// The per-layer times are as measured; this says how fast the host
	// was while they were taken (nominalKernelUS on the reference host).
	out.Metrics["host.kernel_us"] = sample{median(cal.slices), "us", len(cal.slices)}
	return nil
}

// spanMetrics turns the pipeline's spans and totals into metrics.
func (t *tracedRun) spanMetrics(m map[string]sample) {
	dur := t.rec.durations()
	med := func(name string) float64 { return median(dur[name]) }
	inUS := func(metric, spanName string) {
		m[metric] = sample{med(spanName), "us", len(dur[spanName])}
	}
	inUS("server.world_build_us", "server.world_build")
	inUS("volcano.fingerprint_us", "volcano.fingerprint")
	inUS("volcano.optimize_hit_us", "volcano.optimize_hit")
	inUS("volcano.plan_string_us", "volcano.plan_string")
	inUS("wire.encode_plan_us", "wire.encode_plan")
	inUS("server.handler_us", "server.handler")
	inUS("server.handler_noobs_us", "server.handler_noobs")
	inUS("volcano.greedy_plan_us", "volcano.greedy_plan")
	inUS("exec.compile_us", "exec.compile")
	m["volcano.optimize_miss_ms"] = sample{med("volcano.optimize_miss") / 1e3, "ms", len(dur["volcano.optimize_miss"])}
	m["exec.run_ms"] = sample{med("exec.run") / 1e3, "ms", len(dur["exec.run"])}
	m["exec.rows_out"] = sample{float64(t.rowsOut) / float64(len(dur["exec.run"])), "count", len(dur["exec.run"])}
	m["obs.request_overhead_us"] = sample{med("server.handler") - med("server.handler_noobs"), "us", len(dur["server.handler"])}
	// What the handler spends outside the hit-path layers timed one by
	// one: JSON decode, admission, response assembly, recording.
	m["server.unattributed_us"] = sample{
		med("server.handler") - med("server.world_build") - med("volcano.fingerprint") -
			med("volcano.optimize_hit") - med("volcano.plan_string") - med("wire.encode_plan"),
		"us", len(dur["server.handler"])}
	m["trace.op_self_us"] = sample{median(t.rec.selfTimes()["op"]), "us", len(dur["op"])}
	// Recorded against unrecorded rounds, pairwise, so an odd round out
	// does not tilt the ratio.
	pairs := min(len(t.roundTime[0]), len(t.roundTime[1]))
	var on, off time.Duration
	for r := 0; r < pairs; r++ {
		on += t.roundTime[0][r]
		off += t.roundTime[1][r]
	}
	m["trace.overhead_pct"] = sample{100 * (float64(on)/float64(off) - 1), "%", pairs * len(t.cfg.Workload.Pool)}

	runs := float64(t.ruleRuns)
	m["volcano.trans_rule_ms"] = sample{ms(t.transTime) / runs, "ms", t.ruleRuns}
	m["volcano.impl_rule_ms"] = sample{ms(t.implTime) / runs, "ms", t.ruleRuns}
	var top time.Duration
	for _, d := range t.perRule {
		top = max(top, d)
	}
	m["volcano.top_trans_rule_share"] = sample{float64(top) / float64(t.transTime), "ratio", len(t.perRule)}
	m["volcano.greedy_cost_ratio"] = sample{geomean(t.greedyRatio), "ratio", len(t.greedyRatio)}
}

// allocMetrics counts the allocations of the three calls whose time is
// mostly allocation, each on the pool's first program (every pool starts
// with a world that has a catalog, so its plan can be executed).
func (t *tracedRun) allocMetrics(observed *inproc, body []byte, m map[string]sample) error {
	p := t.cfg.Workload.Pool[0]
	w, err := t.e.world(p.World)
	if err != nil {
		return err
	}
	const reps = 50
	pc := volcano.NewPlanCache(512)
	searchInto := func() {
		_, tree, want, err := t.e.build(p)
		if err != nil {
			return
		}
		o := volcano.NewOptimizer(w.RS)
		o.Opts.Cache = pc
		_, _ = o.OptimizeContext(context.Background(), tree, want)
	}
	searchInto()
	buildOnly := allocsPer(reps, func() { _, _, _, _ = t.e.build(p) })
	m["volcano.optimize_hit_allocs"] = sample{allocsPer(reps, searchInto) - buildOnly, "count", reps}
	m["server.handler_allocs"] = sample{allocsPer(reps, func() { observed.serve(body) }), "count", reps}
	db, plan := t.bigDB(w), t.plans[p]
	m["exec.allocs_per_run"] = sample{allocsPer(reps, func() {
		if it, err := exec.NewCompiler(db, w.ExecProps).Compile(plan.ToExpr()); err == nil {
			_, _ = exec.Run(it)
		}
	}), "count", reps}
	return nil
}

func runTraced(cfg config) (*outcome, error) {
	wl := cfg.Workload
	m := map[string]sample{}
	e, err := setupLayers(cfg, m)
	if err != nil {
		return nil, err
	}

	// Gate and counters, as in the untraced run.
	first, err := searchPoolOnce(e, wl.Pool)
	if err != nil {
		return nil, err
	}
	g, err := e.gatePool(wl.Pool, first.refs)
	if err != nil {
		return nil, err
	}
	if err := checkDeterminism(e, wl.Pool, first.counters); err != nil {
		return nil, err
	}
	searchCounterMetrics(first.counters, len(wl.Pool), m)
	m["exec.oracle_nonempty_share"] = sample{g.nonEmptyShare(), "ratio", g.Executed}

	observed, err := newInproc(e.reg, wl.CacheSize, true)
	if err != nil {
		return nil, err
	}
	bare, err := newInproc(e.reg, wl.CacheSize, false)
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(observed.srv.Handler())
	defer hs.Close()
	loop, err := newPoster(hs.URL, wl.Pool)
	if err != nil {
		return nil, err
	}
	defer loop.close()

	// About 60% of the run goes to the pipeline, 15% to the replay; the
	// probes after them are counted, not timed.
	t := &tracedRun{
		cfg: cfg, e: e, rec: newRecorder(), dbs: map[string]*data.DB{},
		refs: first.refs, plans: first.plans, perRule: map[string]time.Duration{},
	}
	out := &outcome{Gate: g, Metrics: m}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	if err := t.pipeline(budget*6/10, observed, bare, loop, out); err != nil {
		return nil, err
	}
	t.spanMetrics(m)
	if err := t.allocMetrics(observed, loop.bodies[0], m); err != nil {
		return nil, err
	}
	if err := t.replay(budget*15/100, m); err != nil {
		return nil, err
	}
	rounds, probes := 7, 200_000
	if cfg.Seconds < 2 { // the smoke test's scale
		rounds, probes = 1, 2_000
	}
	if err := t.paperProbe(rounds, m); err != nil {
		return nil, err
	}
	if err := t.microProbes(probes, m); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.OutDir, "trace-"+wl.Name+".json")
	if err := t.rec.writeChrome(tracePath); err != nil {
		return nil, err
	}
	out.Notes = append(out.Notes, fmt.Sprintf("%d spans in %s", len(t.rec.spans), tracePath))
	return out, nil
}
