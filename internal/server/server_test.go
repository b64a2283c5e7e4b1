package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"prairie/internal/core"
	"prairie/internal/obs"
	"prairie/internal/oodb"
	"prairie/internal/qgen"
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
	for _, want := range []string{"prairie_server_requests_total 1", "prairie_optimize_seconds"} {
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

// TestNoTraceOrVarsEndpoint: the engine writes no span trace to export,
// and /metrics is the registry's one rendering, so with every observer
// attached /trace and /vars find no endpoint while /metrics still
// answers.
func TestNoTraceOrVarsEndpoint(t *testing.T) {
	_, hs := testServer(t, observedConfig)
	optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}})
	for path, want := range map[string]int{"/trace": http.StatusNotFound, "/vars": http.StatusNotFound, "/metrics": http.StatusOK} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestNoBatchEndpoint: /v1/batch is gone — every search is one
// /v1/optimize request with its own admission and flight record — so a
// well-formed batch body finds no endpoint and searches nothing.
func TestNoBatchEndpoint(t *testing.T) {
	srv, hs := testServer(t, observedConfig)
	resp, err := http.Post(hs.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"items":[{"ruleset":"oodb/volcano","query":{"family":"E1","n":3}}],"workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/batch: status %d, want 404", resp.StatusCode)
	}
	if st := srv.Cache().Snapshot(); st.Hits+st.Misses != 0 {
		t.Errorf("a batch-shaped request reached the plan cache: %+v", st)
	}
	if _, metrics := getJSONBody(t, hs.URL+"/metrics"); !bytes.Contains(metrics, []byte("\nprairie_server_requests_total 0\n")) {
		t.Errorf("a batch-shaped request was counted as a request:\n%s", metrics)
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

// TestPanicIsolation: a request that panics — in its world's query
// builder, or in a rule hook mid-search while it leads a cache flight —
// is answered 500, its flight record completes with the panic text (the
// X-Request-Id the client got resolves), a repeat is not parked behind
// the dead flight, and the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	world, _ := reg.Lookup("oodb/volcano")
	reg.Add(&World{
		Name: "boom",
		RS:   world.RS,
		MaxN: world.MaxN,
		Build: func(q QuerySpec) (*core.Expr, *core.Descriptor, error) {
			panic("synthetic build failure")
		},
	})
	hook := OODBVolcanoWorld(oodb.New(qgen.Catalog(4, 101, false)), 4)
	hook.Name = "hook"
	for _, r := range hook.RS.Trans {
		r.Cond = func(*core.Binding) bool { panic("injected rule-hook failure") }
	}
	reg.Add(hook)
	srv, err := New(Config{
		Registry: reg,
		Obs:      &obs.Observer{Metrics: obs.NewRegistry()},
		Flight:   obs.NewFlightRecorderObserved(obs.FlightConfig{Capacity: 8, SlowThreshold: time.Nanosecond}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	q := QuerySpec{Family: "E1", N: 3}
	for _, c := range []struct{ world, panic string }{
		{"boom", "synthetic build failure"},
		{"hook", "injected rule-hook failure"},
		{"hook", "injected rule-hook failure"},
	} {
		resp, body := postJSON(t, hs.URL+"/v1/optimize", OptimizeRequest{Ruleset: c.world, Query: q})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: panicking request: status %d: %s", c.world, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), c.panic) {
			t.Errorf("%s: panic not surfaced: %s", c.world, body)
		}
		rec := fetchRecord(t, hs.URL, resp.Header.Get("X-Request-Id"))
		if rec.Status != http.StatusInternalServerError || rec.Outcome != "error" || !strings.Contains(rec.Error, c.panic) {
			t.Errorf("%s: panicking request's flight record: %+v", c.world, rec)
		}
	}
	// Server still serves.
	optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: "oodb/volcano", Query: q})
	if got := srv.mPanics.Value(); got != 3 {
		t.Errorf("panic counter = %d, want 3", got)
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
