// Package server exposes the optimizer as an HTTP/JSON service: a
// registry of prepared rule sets ("worlds"), per-request budget classes
// mapped onto volcano.Budget, one cross-query plan cache shared by every
// request, and the observability surface of internal/obs. Robustness is
// the point of the package: admission control with a bounded in-flight
// semaphore and a queue-wait deadline (load is shed with 429/503 +
// Retry-After, never a partial plan), per-request timeouts propagated
// through OptimizeContext (over-deadline searches degrade gracefully and
// say so), panic isolation per request, and graceful shutdown that
// drains in-flight optimizations before the process exits.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prairie/internal/core"
	"prairie/internal/exec"
	"prairie/internal/obs"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// Config tunes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Registry holds the servable worlds (required).
	Registry *Registry
	// CacheSize is the shared plan-cache capacity (entries); 0 = 512,
	// negative = disabled.
	CacheSize int
	// MaxInflight bounds concurrently running optimizations; 0 = 2 ×
	// GOMAXPROCS. Requests beyond it queue.
	MaxInflight int
	// MaxQueue bounds queued (admitted-but-waiting) requests; beyond it
	// requests are shed immediately with 429. 0 = 4 × MaxInflight.
	MaxQueue int
	// QueueWait is how long a queued request may wait for a slot before
	// being shed with 503. 0 = 250ms.
	QueueWait time.Duration
	// DefaultTimeout applies when a request names none; 0 = 5s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request timeouts; 0 = 30s.
	MaxTimeout time.Duration
	// Obs attaches metrics/tracing; nil serves /metrics from an empty
	// registry.
	Obs *obs.Observer
	// Flight is the request flight recorder behind /v1/debug/requests.
	// nil is the only off: it disables all per-request recording,
	// keeping the request path byte-identical to a build without the
	// recorder.
	Flight *obs.FlightRecorder
	// Log receives structured request/drain logs; nil disables logging.
	Log *slog.Logger
}

// The demo database a request with "execute": true runs its plan on:
// execRows rows per generated table, drawn from execSeed.
const (
	execRows = 64
	execSeed = 101
)

func (c *Config) maxInflight() int {
	if c.MaxInflight > 0 {
		return c.MaxInflight
	}
	return 2 * runtime.GOMAXPROCS(0)
}

func (c *Config) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 4 * c.maxInflight()
}

func (c *Config) queueWait() time.Duration {
	if c.QueueWait > 0 {
		return c.QueueWait
	}
	return 250 * time.Millisecond
}

func (c *Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout > 0 {
		return c.DefaultTimeout
	}
	return 5 * time.Second
}

func (c *Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return 30 * time.Second
}

func (c *Config) cacheSize() int {
	switch {
	case c.CacheSize > 0:
		return c.CacheSize
	case c.CacheSize < 0:
		return 0
	}
	return 512
}

// defaultBudgets are the built-in budget classes. "default" runs
// unbounded (modulo the request timeout); "interactive" trades
// optimality for tail latency; "batch" allows a long search; "tiny" is
// deliberately small so degraded behaviour is reachable in tests.
func defaultBudgets() map[string]volcano.Budget {
	return map[string]volcano.Budget{
		"default":     {},
		"interactive": {Timeout: 200 * time.Millisecond, MaxExprs: 200_000},
		"batch":       {Timeout: 2 * time.Second},
		"tiny":        {MaxExprs: 400},
	}
}

// Server is the optimizer service.
type Server struct {
	cfg     Config
	budgets map[string]volcano.Budget
	cache   *volcano.PlanCache
	sem     chan struct{}
	waiting atomic.Int64
	// inflightMu guards inflightN: requests past the draining gate, which
	// Drain waits out. The draining check and the increment happen under
	// one lock so a request can never slip in after Drain observed zero.
	inflightMu   sync.Mutex
	inflightCond *sync.Cond
	inflightN    int
	draining     atomic.Bool
	mux          *http.ServeMux
	started      time.Time

	// gEntries and gEvictions expose the cache's occupancy and lifetime
	// evictions, set from its Snapshot at scrape time.
	gEntries, gEvictions *obs.Gauge

	// metrics (nil registry → nil metrics, every sink is nil-safe)
	mRequests *obs.Counter
	mShed429  *obs.Counter
	mShed503  *obs.Counter
	mErrors   *obs.Counter
	mPanics   *obs.Counter
	mDegraded *obs.Counter
	mHits     *obs.Counter
	mDrained  *obs.Counter
	// The server times each layer of a request once, for every request,
	// recorded or not: the queue wait here, the search in the engine's
	// prairie_optimize_seconds, the plan's execution in hExec.
	hQueueWait *obs.Histogram
	hExec      *obs.Histogram
}

// New builds a Server over cfg.Registry.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil || len(cfg.Registry.Names()) == 0 {
		return nil, errors.New("server: config needs a non-empty Registry")
	}
	s := &Server{
		cfg:     cfg,
		budgets: defaultBudgets(),
		cache:   volcano.NewPlanCache(cfg.cacheSize()),
		sem:     make(chan struct{}, cfg.maxInflight()),
	}
	s.inflightCond = sync.NewCond(&s.inflightMu)
	s.started = time.Now()
	if reg := cfg.Obs.MetricsOrNil(); reg != nil {
		s.mRequests = reg.Counter("prairie_server_requests_total")
		s.mShed429 = reg.Counter("prairie_server_shed_queue_full_total")
		s.mShed503 = reg.Counter("prairie_server_shed_queue_wait_total")
		s.mErrors = reg.Counter("prairie_server_errors_total")
		s.mPanics = reg.Counter("prairie_server_panics_total")
		s.mDegraded = reg.Counter("prairie_server_degraded_total")
		s.mHits = reg.Counter("prairie_server_cache_hits_total")
		s.mDrained = reg.Counter("prairie_server_drain_refused_total")
		s.hQueueWait = reg.Histogram("prairie_server_queue_wait_seconds", nil)
		s.hExec = reg.Histogram("prairie_server_exec_seconds", nil)
		if s.cache != nil {
			// One series per family, under the name and label that
			// bench/layers.go reads plancache.evictions from.
			s.gEntries = reg.Gauge(obs.Label("prairie_plancache_shard_entries", "shard", "0"))
			s.gEvictions = reg.Gauge(obs.Label("prairie_plancache_shard_evictions", "shard", "0"))
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/optimize", s.guard(s.handleOptimize))
	s.mux.HandleFunc("/v1/rulesets", s.guard(s.handleRulesets))
	s.mux.HandleFunc("/v1/invalidate", s.guard(s.handleInvalidate))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	// Observability exposition: delegate to the obs mux so the service
	// surface and the standalone exposition stay identical; the wrapper
	// publishes the point-in-time cache gauges first (the registry is
	// pull-based with no collect hooks).
	om := obs.NewMux(cfg.Obs.MetricsOrNil(), cfg.Flight)
	oh := http.Handler(om)
	if s.gEntries != nil {
		oh = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			st := s.cache.Snapshot()
			s.gEntries.Set(float64(st.Entries))
			s.gEvictions.Set(float64(st.Evictions))
			om.ServeHTTP(w, r)
		})
	}
	paths := []string{"/metrics", "/debug/pprof/"}
	if cfg.Flight != nil {
		paths = append(paths, "/v1/debug/requests", "/v1/debug/requests/")
	}
	for _, p := range paths {
		s.mux.Handle(p, oh)
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the shared plan cache (tests and the invalidate
// endpoint).
func (s *Server) Cache() *volcano.PlanCache { return s.cache }

// BeginDrain gates new work off: subsequent optimize requests are
// refused with 503 and /healthz reports draining.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain begins draining and blocks until every in-flight request has
// been answered or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflightMu.Lock()
		for s.inflightN > 0 {
			s.inflightCond.Wait()
		}
		s.inflightMu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// The waiter goroutine exits once the last request finishes and
		// broadcasts; nothing holds it beyond that.
		return ctx.Err()
	}
}

// track counts a request into the drain set, refusing when draining.
// The check and increment share inflightMu so Drain can never observe
// zero while an admitted request is about to start.
func (s *Server) track() bool {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflightN++
	return true
}

func (s *Server) untrack() {
	s.inflightMu.Lock()
	s.inflightN--
	if s.inflightN == 0 {
		s.inflightCond.Broadcast()
	}
	s.inflightMu.Unlock()
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) shed(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(retryAfter.Seconds()+0.999)))
	writeJSON(w, code, errorBody{Error: msg, RetryAfterMS: retryAfter.Milliseconds()})
}

// guard wraps a handler with panic isolation: a panicking request is
// answered with 500 and counted, and never takes the process down.
// Handlers that keep a flight record complete it first (recordPanic).
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.mPanics.Inc()
				writeJSON(w, http.StatusInternalServerError,
					errorBody{Error: fmt.Sprintf("internal panic: %v", p)})
			}
		}()
		h(w, r)
	}
}

// admit implements admission control: a free slot is taken immediately;
// otherwise the request queues, bounded in count by MaxQueue (shed 429)
// and in time by QueueWait (shed 503). The returned release must be
// called when the optimization finishes; wait is how long the request
// queued before the outcome either way.
func (s *Server) admit(ctx context.Context) (release func(), wait time.Duration, code int, err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, 0, nil
	default:
	}
	if n := s.waiting.Add(1); n > int64(s.cfg.maxQueue()) {
		s.waiting.Add(-1)
		s.mShed429.Inc()
		return nil, 0, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d waiting)", n-1)
	}
	defer s.waiting.Add(-1)
	start := time.Now()
	t := time.NewTimer(s.cfg.queueWait())
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		wait = time.Since(start)
		s.hQueueWait.Observe(wait.Seconds())
		return func() { <-s.sem }, wait, 0, nil
	case <-t.C:
		s.mShed503.Inc()
		return nil, time.Since(start), http.StatusServiceUnavailable,
			fmt.Errorf("no slot within %s", s.cfg.queueWait())
	case <-ctx.Done():
		// Client gone; nothing useful to send, but the handler needs a
		// status. 503 keeps the semantics "not processed".
		return nil, time.Since(start), http.StatusServiceUnavailable, ctx.Err()
	}
}

// begin performs the shared request preamble: drain gate + admission.
// ok=false means the response has been written (and rec, when present,
// completed as shed).
func (s *Server) begin(w http.ResponseWriter, r *http.Request, rec *obs.RequestRecord) (release func(), ok bool) {
	s.mRequests.Inc()
	if !s.track() {
		s.mDrained.Inc()
		s.shed(w, http.StatusServiceUnavailable, "server draining", time.Second)
		s.finish(rec, http.StatusServiceUnavailable, "shed", "server draining")
		return nil, false
	}
	rel, wait, code, err := s.admit(r.Context())
	rec.SetAdmissionWait(wait)
	if err != nil {
		s.untrack()
		s.shed(w, code, err.Error(), s.cfg.queueWait())
		s.finish(rec, code, "shed", err.Error())
		return nil, false
	}
	return func() {
		rel()
		s.untrack()
	}, true
}

// finish classifies and completes a flight record and emits the
// structured request log. nil-safe; call it exactly once per recorded
// request, after the response is written.
func (s *Server) finish(rec *obs.RequestRecord, status int, outcome, errMsg string) {
	if rec == nil {
		return
	}
	rec.Status = status
	rec.Outcome = outcome
	rec.Error = errMsg
	s.cfg.Flight.Complete(rec)
	level := obs.LevelDebug
	switch {
	case outcome == "error":
		level = obs.LevelError
	case outcome != "ok":
		level = obs.LevelWarn
	}
	// At the default info level a clean request logs nothing, so its
	// fields are not boxed either.
	if lg, ctx := s.cfg.Log, context.Background(); lg != nil && lg.Enabled(ctx, level) {
		kv := []any{"request_id", rec.ID, "endpoint", rec.Endpoint,
			"status", status, "outcome", outcome, "elapsed_us", rec.ElapsedUS}
		if errMsg != "" {
			kv = append(kv, "error", errMsg)
		}
		lg.Log(ctx, level, "request", kv...)
	}
}

// recordPanic, deferred by a recording handler, completes the flight
// record of a panicking request — the X-Request-Id the client holds must
// resolve on /v1/debug/requests/{id}, this request above all — and hands
// the panic on to guard.
func (s *Server) recordPanic(rec *obs.RequestRecord) {
	if p := recover(); p != nil {
		s.finish(rec, http.StatusInternalServerError, "error", fmt.Sprintf("internal panic: %v", p))
		panic(p)
	}
}

// record begins the flight record of one request and stamps the
// correlation headers; nil when there is no recorder.
func (s *Server) record(w http.ResponseWriter, r *http.Request, endpoint string) *obs.RequestRecord {
	rec := s.cfg.Flight.Begin(r.Header.Get("traceparent"))
	if rec == nil {
		return nil
	}
	rec.Endpoint = endpoint
	w.Header().Set("X-Request-Id", rec.ID)
	w.Header().Set("Traceparent", rec.TraceParent())
	return rec
}

// OptimizeRequest is the wire request of /v1/optimize.
type OptimizeRequest struct {
	Ruleset string    `json:"ruleset"`
	Query   QuerySpec `json:"query"`
	// Budget names a budget class ("" = "default").
	Budget string `json:"budget,omitempty"`
	// TimeoutMS is the per-request deadline; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludePlan asks for the full serialized plan tree in addition to
	// the textual rendering.
	IncludePlan bool `json:"include_plan,omitempty"`
	// Execute asks the server to also run the winning plan on the
	// world's generated demo database and report the executed row count
	// (worlds without a catalog refuse). With the flight recorder on,
	// the execution contributes per-operator runtime stats to the
	// request's record.
	Execute bool `json:"execute,omitempty"`
}

// StatsSummary is the per-request slice of volcano.Stats the service
// reports.
type StatsSummary struct {
	Groups     int `json:"groups"`
	Exprs      int `json:"exprs"`
	TransFired int `json:"trans_fired"`
	ImplFired  int `json:"impl_fired"`
	CostedPlan int `json:"costed_plans"`
}

// OptimizeResponse is the wire response of /v1/optimize.
type OptimizeResponse struct {
	Ruleset string    `json:"ruleset"`
	Query   QuerySpec `json:"query"`
	// PlanText is the compact functional rendering
	// ("Merge_sort(Nested_loops(...))"); IncludePlan adds the full
	// descriptor-bearing tree.
	PlanText     string         `json:"plan_text"`
	Plan         *wire.PlanNode `json:"plan,omitempty"`
	Cost         float64        `json:"cost"`
	Degraded     bool           `json:"degraded,omitempty"`
	DegradeCause string         `json:"degrade_cause,omitempty"`
	DegradePath  string         `json:"degrade_path,omitempty"`
	CacheHit     bool           `json:"cache_hit"`
	ElapsedUS    int64          `json:"elapsed_us"`
	Stats        StatsSummary   `json:"stats"`
	// Exec reports the executed plan's runtime when the request set
	// "execute": true.
	Exec *ExecSummary `json:"exec,omitempty"`
	// RequestID correlates the response with its flight record
	// (/v1/debug/requests/{id}); present only when the recorder is on.
	RequestID string `json:"request_id,omitempty"`

	// head and plan are the cache entry's rendered `"plan_text":"…"` and
	// (when asked for) `,"plan":{…}`: the server never fills Plan, its
	// appendJSON splices these bytes (see render.go).
	head, plan []byte
}

// ExecSummary is the wire rendering of an executed plan's runtime.
type ExecSummary struct {
	Rows      int   `json:"rows"`
	ElapsedUS int64 `json:"elapsed_us"`
}

// timeout resolves and clamps the effective request deadline.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.defaultTimeout()
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if max := s.cfg.maxTimeout(); d > max {
		d = max
	}
	return d
}

// prepared is a request resolved against its world: the budget class
// looked up and the query's prepared tree fetched (World.prepared; shared,
// read-only). It is what optimizeOne searches.
type prepared struct {
	world  *World
	req    OptimizeRequest
	budget volcano.Budget
	tree   *core.Expr
	want   *core.Descriptor
}

// prepare resolves req against world; every failure is the client's (400).
func (s *Server) prepare(world *World, req OptimizeRequest) (prepared, error) {
	budget, ok := s.budgets[budgetName(req.Budget)]
	if !ok {
		return prepared{}, fmt.Errorf("unknown budget class %q", req.Budget)
	}
	tree, want, err := world.prepared(req.Query, s.cache.Epoch())
	if err != nil {
		return prepared{}, err
	}
	return prepared{world: world, req: req, budget: budget, tree: tree, want: want}, nil
}

// optimizeOne runs one prepared request on a fresh optimizer (the
// optimizer is single-use; the rule set, cache and observer are the
// shared state). It is the server's one way into the search, and its
// one clock on it: elapsed is the response's elapsed_us and the record's
// optimize_us. The request's timeout_ms bounds the context, never the
// Budget, so it is no part of the cache key.
func (s *Server) optimizeOne(ctx context.Context, p *prepared, rec *obs.RequestRecord) (*OptimizeResponse, int, error) {
	world, req := p.world, p.req
	rec.SetRequestInfo(world.Name, req.Query.String(), budgetName(req.Budget))
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	defer cancel()

	opt := volcano.NewOptimizer(world.RS)
	opt.Opts.Budget = p.budget
	opt.Opts.Obs = s.cfg.Obs
	opt.Opts.Cache = s.cache
	start := time.Now()
	plan, err := opt.OptimizeContext(ctx, p.tree, p.want)
	elapsed := time.Since(start)
	rec.SetOptimize(elapsed)
	if err != nil {
		// ErrNoPlan: no plan, not even a degraded one, satisfies the
		// requirement; no partial plan ever leaves the server.
		return nil, http.StatusUnprocessableEntity, err
	}
	if rec != nil {
		s.recordOutcome(rec, opt.Stats)
	}
	resp, err := s.buildResponse(world, req, plan, opt.Rendering, opt.Stats, elapsed.Microseconds())
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	if req.Execute {
		sum, code, err := s.executePlan(world, plan, rec)
		if err != nil {
			return nil, code, err
		}
		resp.Exec = sum
	}
	return resp, http.StatusOK, nil
}

// recordOutcome copies one finished optimization's cache and search
// outcome into its flight record.
func (s *Server) recordOutcome(rec *obs.RequestRecord, st *volcano.Stats) {
	outcome := "miss"
	switch {
	case s.cache == nil:
		outcome = "bypass"
	case st.FlightShared > 0:
		outcome = "flight-collapsed"
	case st.CacheHits > 0 && st.CacheMisses == 0:
		outcome = "hit"
	}
	rec.SetCache(outcome, s.cache.Epoch())
	si := obs.SearchInfo{
		Groups:       st.Groups,
		Exprs:        st.Exprs,
		TransFired:   sumCounts(st.TransFired),
		ImplFired:    sumCounts(st.ImplFired),
		CostedPlans:  st.CostedPlans,
		BudgetChecks: st.BudgetChecks,
		Degraded:     st.Degraded,
	}
	if st.Degraded {
		si.DegradeCause = st.DegradeCause.String()
		si.DegradePath = st.DegradePath
	}
	rec.SetSearch(si)
}

// executePlan runs a winning plan on the world's demo database, times it
// once for the response, the record and prairie_server_exec_seconds,
// and, for recorded requests, lands the per-operator runtime stats in
// the flight record.
func (s *Server) executePlan(world *World, plan *core.Expr, rec *obs.RequestRecord) (*ExecSummary, int, error) {
	db := world.ExecDB(execSeed, execRows)
	if db == nil {
		return nil, http.StatusBadRequest,
			fmt.Errorf("world %s has no catalog; cannot execute plans", world.Name)
	}
	comp := exec.NewCompiler(db, world.ExecProps)
	if rec != nil {
		comp.Stats = &exec.ExecStats{}
	}
	began := time.Now()
	it, err := comp.Compile(plan)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("execute: %w", err)
	}
	res, err := exec.Run(it)
	elapsed := time.Since(began)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("execute: %w", err)
	}
	s.hExec.Observe(elapsed.Seconds())
	sum := &ExecSummary{Rows: len(res.Rows), ElapsedUS: elapsed.Microseconds()}
	if rec != nil {
		rec.SetExec(obs.ExecInfo{
			Rows:      sum.Rows,
			ElapsedUS: sum.ElapsedUS,
			Ops:       comp.Stats.Report(),
		})
	}
	return sum, 0, nil
}

// buildResponse renders one optimization outcome as its wire response;
// the per-outcome server metrics (degraded, cache hits) are counted
// exactly once here.
// slot is the rendering slot of the cache entry behind plan (nil: none).
// The only error is an include_plan request whose plan cannot be
// encoded.
func (s *Server) buildResponse(world *World, req OptimizeRequest, plan *core.Expr, slot *volcano.Rendering, st *volcano.Stats, elapsedUS int64) (*OptimizeResponse, error) {
	pb := renderPlan(slot, plan, world.RS.Class)
	resp := &OptimizeResponse{
		Ruleset:   world.Name,
		Query:     req.Query,
		PlanText:  pb.text,
		Cost:      pb.cost,
		head:      pb.head,
		Degraded:  st.Degraded,
		CacheHit:  st.CacheHits > 0 && st.CacheMisses == 0,
		ElapsedUS: elapsedUS,
		Stats: StatsSummary{
			Groups:     st.Groups,
			Exprs:      st.Exprs,
			TransFired: sumCounts(st.TransFired),
			ImplFired:  sumCounts(st.ImplFired),
			CostedPlan: st.CostedPlans,
		},
	}
	if st.Degraded {
		resp.DegradeCause = st.DegradeCause.String()
		resp.DegradePath = st.DegradePath
		s.mDegraded.Inc()
	}
	if resp.CacheHit {
		s.mHits.Inc()
	}
	if req.IncludePlan {
		var err error
		if resp.plan, err = pb.planJSON(); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

func sumCounts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func budgetName(s string) string {
	if s == "" {
		return "default"
	}
	return s
}

const maxBody = 1 << 20

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		// Malformed JSON and unknown fields alike: a misspelt or retired
		// option is refused by name, never ignored.
		s.mErrors.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

// fail answers an admitted request with an error body, counted and
// recorded.
func (s *Server) fail(w http.ResponseWriter, rec *obs.RequestRecord, code int, err error) {
	s.mErrors.Inc()
	writeJSON(w, code, errorBody{Error: err.Error()})
	s.finish(rec, code, "error", err.Error())
}

// decodeOptimize reads a /v1/optimize body and resolves its world;
// ok=false means the 4xx answer has been written.
func (s *Server) decodeOptimize(w http.ResponseWriter, r *http.Request) (req OptimizeRequest, world *World, ok bool) {
	if !s.decode(w, r, &req) {
		return req, nil, false
	}
	if world, ok = s.cfg.Registry.Lookup(req.Ruleset); !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown ruleset %q", req.Ruleset)})
	}
	return req, world, ok
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	req, world, ok := s.decodeOptimize(w, r)
	if !ok {
		return
	}
	rec := s.record(w, r, "/v1/optimize")
	defer s.recordPanic(rec)
	release, ok := s.begin(w, r, rec)
	if !ok {
		return
	}
	defer release()
	p, err := s.prepare(world, req)
	if err != nil {
		s.fail(w, rec, http.StatusBadRequest, err)
		return
	}
	resp, code, err := s.optimizeOne(r.Context(), &p, rec)
	if err != nil {
		s.fail(w, rec, code, err)
		return
	}
	if rec != nil {
		resp.RequestID = rec.ID
	}
	if err := writeAppended(w, code, resp); err != nil {
		s.fail(w, rec, http.StatusInternalServerError, err)
		return
	}
	outcome := "ok"
	if resp.Degraded {
		outcome = "degraded"
	}
	s.finish(rec, code, outcome, "")
}

// rulesetInfo describes one servable world on /v1/rulesets.
type rulesetInfo struct {
	Name    string   `json:"name"`
	MaxN    int      `json:"max_n"`
	Budgets []string `json:"budgets"`
}

func (s *Server) handleRulesets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET required"})
		return
	}
	budgets := make([]string, 0, len(s.budgets))
	for name := range s.budgets {
		budgets = append(budgets, name)
	}
	sort.Strings(budgets)
	var out []rulesetInfo
	for _, name := range s.cfg.Registry.Names() {
		world, _ := s.cfg.Registry.Lookup(name)
		out = append(out, rulesetInfo{Name: name, MaxN: world.MaxN, Budgets: budgets})
	}
	writeJSON(w, http.StatusOK, map[string]any{"rulesets": out})
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": s.cache.Invalidate()})
}

// healthBody is the /healthz response: liveness plus the handful of
// gauges an operator checks first when the service misbehaves.
type healthBody struct {
	Status     string `json:"status"`
	UptimeS    int64  `json:"uptime_s"`
	Inflight   int    `json:"inflight"`
	QueueDepth int64  `json:"queue_depth"`
	Draining   bool   `json:"draining"`
	CacheEpoch uint64 `json:"cache_epoch"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.inflightMu.Lock()
	inflight := s.inflightN
	s.inflightMu.Unlock()
	body := healthBody{
		Status:     "ok",
		UptimeS:    int64(time.Since(s.started).Seconds()),
		Inflight:   inflight,
		QueueDepth: s.waiting.Load(),
		CacheEpoch: s.cache.Epoch(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status, body.Draining = "draining", true
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}
