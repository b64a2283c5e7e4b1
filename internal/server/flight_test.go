package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"prairie/internal/obs"
)

// flightServer is testServer with an always-retaining flight recorder
// (nanosecond slow threshold: every request classifies slow) and a
// metrics registry.
func flightServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	srv, hs := testServer(t, func(cfg *Config) {
		cfg.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
		cfg.Flight = obs.NewFlightRecorderObserved(obs.FlightConfig{
			Capacity:      32,
			SlowThreshold: time.Nanosecond,
		}, cfg.Obs.Metrics)
		if mutate != nil {
			mutate(cfg)
		}
	})
	return srv, hs.URL
}

// debugRecord is the subset of the flight-record JSON the tests assert
// on; field names mirror obs.RequestRecord's wire form.
type debugRecord struct {
	ID              string `json:"id"`
	TraceID         string `json:"trace_id"`
	ParentSpan      string `json:"parent_span"`
	Endpoint        string `json:"endpoint"`
	Ruleset         string `json:"ruleset"`
	Query           string `json:"query"`
	Budget          string `json:"budget"`
	Status          int    `json:"status"`
	Outcome         string `json:"outcome"`
	Error           string `json:"error"`
	AdmissionWaitUS int64  `json:"admission_wait_us"`
	OptimizeUS      *int64 `json:"optimize_us"`
	Cache           *struct {
		Outcome string `json:"outcome"`
		Epoch   uint64 `json:"epoch"`
	} `json:"cache"`
	Search *struct {
		Groups       int    `json:"groups"`
		Exprs        int    `json:"exprs"`
		Degraded     bool   `json:"degraded"`
		DegradeCause string `json:"degrade_cause"`
	} `json:"search"`
	Exec *struct {
		Rows      int   `json:"rows"`
		ElapsedUS int64 `json:"elapsed_us"`
		Ops       []struct {
			Parent  int    `json:"parent"`
			Op      string `json:"op"`
			RowsOut int64  `json:"rows_out"`
		} `json:"ops"`
	} `json:"exec"`
}

func fetchRecord(t *testing.T, base, id string) debugRecord {
	t.Helper()
	resp, err := http.Get(base + "/v1/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record %s: status %d", id, resp.StatusCode)
	}
	var rec debugRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("record %s: %v", id, err)
	}
	return rec
}

// TestFlightEndToEnd: one optimize request is fully reconstructable
// from /v1/debug/requests/{id} — correlation headers out, inbound
// traceparent joined, cache/search sections populated.
func TestFlightEndToEnd(t *testing.T) {
	_, base := flightServer(t, nil)

	const tid = "0af7651916cd43dd8448eb211c80319c"
	const span = "b7ad6b7169203331"
	body := strings.NewReader(`{"ruleset":"oodb/volcano","query":{"family":"E2","n":3},"budget":"interactive"}`)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/optimize", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+tid+"-"+span+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var or OptimizeResponse
	err = json.NewDecoder(resp.Body).Decode(&or)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d err %v", resp.StatusCode, err)
	}

	id := resp.Header.Get("X-Request-Id")
	if id == "" || or.RequestID != id {
		t.Fatalf("request id: header %q, body %q", id, or.RequestID)
	}
	if tp := resp.Header.Get("Traceparent"); tp != "00-"+tid+"-"+id+"-01" {
		t.Fatalf("outbound traceparent %q", tp)
	}

	// The index lists it.
	iresp, err := http.Get(base + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		Requests []struct {
			ID string `json:"id"`
		} `json:"requests"`
	}
	err = json.NewDecoder(iresp.Body).Decode(&idx)
	iresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range idx.Requests {
		found = found || e.ID == id
	}
	if !found {
		t.Fatalf("index does not list %s: %+v", id, idx)
	}

	rec := fetchRecord(t, base, id)
	if rec.TraceID != tid || rec.ParentSpan != span {
		t.Fatalf("trace join: trace=%s parent=%s", rec.TraceID, rec.ParentSpan)
	}
	if rec.Endpoint != "/v1/optimize" || rec.Ruleset != "oodb/volcano" ||
		rec.Query != "E2/n3" || rec.Budget != "interactive" {
		t.Fatalf("request info: %+v", rec)
	}
	if rec.Status != http.StatusOK || rec.Outcome != "ok" {
		t.Fatalf("outcome: status %d outcome %q", rec.Status, rec.Outcome)
	}
	if rec.Cache == nil || rec.Cache.Outcome != "miss" {
		t.Fatalf("cache section: %+v", rec.Cache)
	}
	if rec.Search == nil || rec.Search.Groups == 0 || rec.Search.Exprs == 0 {
		t.Fatalf("search section: %+v", rec.Search)
	}
	// A repeat of the same request is recorded as a cache hit.
	or2 := optimizeOK(t, base, OptimizeRequest{
		Ruleset: "oodb/volcano",
		Query:   QuerySpec{Family: "E2", N: 3},
		Budget:  "interactive",
	})
	if !or2.CacheHit {
		t.Fatal("repeat request missed the cache")
	}
	hit := fetchRecord(t, base, or2.RequestID)
	if hit.Cache == nil || hit.Cache.Outcome != "hit" {
		t.Fatalf("hit record cache section: %+v", hit.Cache)
	}
}

// TestFlightDegradedAndError: degraded and errored requests land in the
// recorder with their cause, reconstructable after the fact.
func TestFlightDegradedAndError(t *testing.T) {
	_, base := flightServer(t, nil)

	or := optimizeOK(t, base, OptimizeRequest{
		Ruleset: "oodb/volcano",
		Query:   QuerySpec{Family: "E4", N: 3},
		Budget:  "tiny",
	})
	if !or.Degraded {
		t.Fatal("tiny budget did not degrade (test premise broken)")
	}
	rec := fetchRecord(t, base, or.RequestID)
	if rec.Outcome != "degraded" || rec.Search == nil || !rec.Search.Degraded || rec.Search.DegradeCause == "" {
		t.Fatalf("degraded record: outcome %q search %+v", rec.Outcome, rec.Search)
	}

	resp, _ := postJSON(t, base+"/v1/optimize", OptimizeRequest{
		Ruleset: "oodb/volcano",
		Query:   QuerySpec{Family: "E2", N: 3},
		Budget:  "no-such-budget",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad budget: status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("errored request carries no X-Request-Id")
	}
	erec := fetchRecord(t, base, id)
	if erec.Outcome != "error" || erec.Status != http.StatusBadRequest ||
		!strings.Contains(erec.Error, "no-such-budget") {
		t.Fatalf("error record: %+v", erec)
	}
}

// TestFlightExecute: "execute": true runs the plan and the record's
// per-operator stats agree with the reported cardinality.
func TestFlightExecute(t *testing.T) {
	_, base := flightServer(t, nil)

	or := optimizeOK(t, base, OptimizeRequest{
		Ruleset: "oodb/volcano",
		Query:   QuerySpec{Family: "E2", N: 3},
		Execute: true,
	})
	if or.Exec == nil {
		t.Fatal("execute returned no summary")
	}
	rec := fetchRecord(t, base, or.RequestID)
	if rec.Exec == nil || rec.Exec.Rows != or.Exec.Rows || len(rec.Exec.Ops) == 0 {
		t.Fatalf("exec section: %+v vs summary %+v", rec.Exec, or.Exec)
	}
	root := rec.Exec.Ops[0]
	if root.Parent != -1 || root.RowsOut != int64(or.Exec.Rows) {
		t.Fatalf("root op %+v, rows %d", root, or.Exec.Rows)
	}
}

// TestRequestLayersTimedOnce: the server times each layer of a request
// once. A record's optimize_us and exec.elapsed_us are the response's
// elapsed_us and exec.elapsed_us, on a miss and on a hit; with the
// recorder off or on, every request feeds prairie_optimize_seconds and
// every executed one prairie_server_exec_seconds, and each cache_hit
// response prairie_plancache_hits_total; and no second measurement of
// the same layers or outcomes is exported.
func TestRequestLayersTimedOnce(t *testing.T) {
	req := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E2", N: 3}, Execute: true}
	plain := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E1", N: 3}}
	for _, recorded := range []bool{false, true} {
		var base string
		if recorded {
			_, base = flightServer(t, nil)
		} else {
			_, hs := testServer(t, func(cfg *Config) { cfg.Obs = &obs.Observer{Metrics: obs.NewRegistry()} })
			base = hs.URL
		}
		hits := 0
		for i, want := range []bool{false, true} { // a miss, then a hit
			or := optimizeOK(t, base, req)
			if or.CacheHit {
				hits++
			}
			if or.CacheHit != want || or.Exec == nil {
				t.Fatalf("recorded=%v request %d: cache_hit %v, exec %+v", recorded, i, or.CacheHit, or.Exec)
			}
			if !recorded {
				continue
			}
			rec := fetchRecord(t, base, or.RequestID)
			if rec.OptimizeUS == nil || *rec.OptimizeUS != or.ElapsedUS {
				t.Errorf("request %d: record optimize_us %v, response elapsed_us %d", i, rec.OptimizeUS, or.ElapsedUS)
			}
			if rec.Exec == nil || rec.Exec.ElapsedUS != or.Exec.ElapsedUS {
				t.Errorf("request %d: record exec %+v, response exec.elapsed_us %d", i, rec.Exec, or.Exec.ElapsedUS)
			}
		}
		if optimizeOK(t, base, plain).CacheHit {
			hits++
		}

		_, metrics := getJSONBody(t, base+"/metrics")
		for _, want := range []string{"\nprairie_optimize_seconds_count 3\n", "\nprairie_server_exec_seconds_count 2\n",
			fmt.Sprintf("\nprairie_plancache_hits_total %d\n", hits)} {
			if !strings.Contains(string(metrics), want) {
				t.Errorf("recorded=%v: /metrics lacks %q", recorded, strings.TrimSpace(want))
			}
		}
		for _, gone := range []string{"prairie_phase_", "prairie_server_optimize_seconds", "prairie_server_cache_hits_total", "prairie_server_degraded_total"} {
			if strings.Contains(string(metrics), gone) {
				t.Errorf("recorded=%v: /metrics still exports %s*", recorded, gone)
			}
		}
	}
}

// TestFlightNeutral: with the recorder off the response carries no
// correlation surface and the optimization outcome is byte-identical to
// a recorded server's.
func TestFlightNeutral(t *testing.T) {
	req := OptimizeRequest{
		Ruleset: "oodb/volcano",
		Query:   QuerySpec{Family: "E3", N: 4},
		Budget:  "interactive",
	}
	_, off := testServer(t, nil)
	_, on := flightServer(t, nil)

	resp, body := postJSON(t, off.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("off server: status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Request-Id"); h != "" {
		t.Fatalf("recorder off but X-Request-Id = %q", h)
	}
	var offResp OptimizeResponse
	if err := json.Unmarshal(body, &offResp); err != nil {
		t.Fatal(err)
	}
	if offResp.RequestID != "" {
		t.Fatalf("recorder off but request_id = %q", offResp.RequestID)
	}
	dresp, err := http.Get(off.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("recorder off but /v1/debug/requests mounted: %d", dresp.StatusCode)
	}

	onResp := optimizeOK(t, on, req)
	if offResp.PlanText != onResp.PlanText || offResp.Cost != onResp.Cost ||
		offResp.Stats != onResp.Stats || offResp.Degraded != onResp.Degraded {
		t.Fatalf("recorder changed the answer:\noff %+v\non  %+v", offResp, onResp)
	}
}

// TestHealthzBody: /healthz reports the serving state as JSON and keeps
// the 200/503 status contract across draining.
func TestHealthzBody(t *testing.T) {
	srv, hs := testServer(t, nil)

	resp, body := getJSONBody(t, hs.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var h struct {
		Status     string `json:"status"`
		UptimeS    *int64 `json:"uptime_s"`
		Inflight   *int   `json:"inflight"`
		QueueDepth *int64 `json:"queue_depth"`
		Draining   bool   `json:"draining"`
		CacheEpoch *int64 `json:"cache_epoch"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Draining ||
		h.UptimeS == nil || h.Inflight == nil || h.QueueDepth == nil || h.CacheEpoch == nil {
		t.Fatalf("healthz body: %s", body)
	}

	srv.BeginDrain()
	resp, body = getJSONBody(t, hs.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("draining healthz body: %s", body)
	}
}

func getJSONBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}
