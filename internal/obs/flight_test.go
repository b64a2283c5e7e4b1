package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// completeOK finalizes rec as a clean 200 and hands it to fr.
func completeOK(fr *FlightRecorder, rec *RequestRecord) {
	rec.Status = http.StatusOK
	rec.Outcome = "ok"
	fr.Complete(rec)
}

// TestFlightDisabled: a recorder of capacity <= 0 is nil, the only
// recorder that is off — Begin yields nil records, every record method
// is a nil-safe no-op, and the debug endpoints are not mounted.
func TestFlightDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if fr := NewFlightRecorderObserved(FlightConfig{Capacity: capacity}, NewRegistry()); fr != nil {
			t.Fatalf("capacity %d made a recorder", capacity)
		}
	}
	var fr *FlightRecorder
	rec := fr.Begin("")
	if rec != nil {
		t.Fatal("the nil recorder's Begin returned a record")
	}
	// The full nil-record surface must be inert.
	rec.SetRequestInfo("w", "q", "b")
	rec.SetAdmissionWait(time.Millisecond)
	rec.SetOptimize(time.Millisecond)
	rec.SetCache("hit", 1)
	rec.SetSearch(SearchInfo{})
	rec.SetExec(ExecInfo{})
	if rec.TraceParent() != "" {
		t.Fatal("nil record leaked state")
	}
	fr.Complete(rec)
	if _, ok := fr.Get("anything"); ok {
		t.Fatal("the nil recorder retained a record")
	}

	mux := NewMux(NewRegistry(), nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/debug/requests", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("no recorder, yet /v1/debug/requests is mounted: status %d", rr.Code)
	}
}

// TestFlightTraceParent: a valid inbound traceparent is joined (trace id
// adopted, inbound span recorded as parent); malformed or all-zero
// headers mint a fresh trace.
func TestFlightTraceParent(t *testing.T) {
	fr := NewFlightRecorderObserved(FlightConfig{Capacity: 4}, nil)
	const tid = "0af7651916cd43dd8448eb211c80319c"
	const span = "b7ad6b7169203331"
	rec := fr.Begin("00-" + tid + "-" + span + "-01")
	if rec.TraceID != tid || rec.ParentSpan != span {
		t.Fatalf("traceparent not joined: trace=%s parent=%s", rec.TraceID, rec.ParentSpan)
	}
	tp := rec.TraceParent()
	if tp != "00-"+tid+"-"+rec.ID+"-01" {
		t.Fatalf("outbound traceparent %q", tp)
	}

	for _, bad := range []string{
		"",
		"junk",
		"00-" + tid + "-" + span, // missing flags
		"00-" + strings.Repeat("0", 32) + "-" + span + "-01", // zero trace id
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01",  // zero span id
		"00-XY" + tid[2:] + "-" + span + "-01",               // non-hex
	} {
		rec := fr.Begin(bad)
		if rec.ParentSpan != "" || len(rec.TraceID) != 32 {
			t.Fatalf("header %q: parent=%q trace=%q", bad, rec.ParentSpan, rec.TraceID)
		}
	}
}

// TestFlightRingRetention: interesting records live in a drop-oldest
// ring of Capacity entries.
func TestFlightRingRetention(t *testing.T) {
	// A nanosecond threshold truncates to 0µs, so every request is slow.
	fr := NewFlightRecorderObserved(FlightConfig{Capacity: 2, SlowThreshold: time.Nanosecond}, nil)
	ids := make([]string, 3)
	for i := range ids {
		rec := fr.Begin("")
		ids[i] = rec.ID
		completeOK(fr, rec)
	}
	if _, ok := fr.Get(ids[0]); ok {
		t.Fatal("oldest record survived a full ring")
	}
	for _, id := range ids[1:] {
		if _, ok := fr.Get(id); !ok {
			t.Fatalf("record %s missing from ring", id)
		}
	}
}

// TestFlightReservoir: normal traffic is uniformly sampled into a
// reservoir of Capacity/4 records, at least 16, never unbounded.
func TestFlightReservoir(t *testing.T) {
	for _, c := range []struct{ capacity, sampleN int }{{4, 16}, {128, 32}} {
		fr := NewFlightRecorderObserved(FlightConfig{Capacity: c.capacity, SlowThreshold: time.Hour}, nil)
		for i := 0; i < 100; i++ {
			completeOK(fr, fr.Begin(""))
		}
		if n := len(fr.records()); n != c.sampleN {
			t.Fatalf("capacity %d: reservoir holds %d records, want %d", c.capacity, n, c.sampleN)
		}
		if fr.completed.Value() != 100 {
			t.Fatalf("completed = %d, want 100", fr.completed.Value())
		}
		if fr.sampled.Value() < int64(c.sampleN) {
			t.Fatalf("sampled = %d, want >= %d", fr.sampled.Value(), c.sampleN)
		}
	}
}

// TestFlightRecordJSON: a fully populated record round-trips through its
// JSON form with every section materialized.
func TestFlightRecordJSON(t *testing.T) {
	fr := NewFlightRecorderObserved(FlightConfig{Capacity: 4, SlowThreshold: time.Nanosecond}, nil)
	rec := fr.Begin("")
	rec.Endpoint = "/v1/optimize"
	rec.SetRequestInfo("oodb/volcano", "E2/n3", "interactive")
	rec.SetAdmissionWait(2 * time.Millisecond)
	rec.SetOptimize(5 * time.Millisecond)
	rec.SetCache("miss", 3)
	rec.SetSearch(SearchInfo{Groups: 7, Exprs: 21, Degraded: true, DegradeCause: "timeout"})
	rec.SetExec(ExecInfo{Rows: 64, Ops: []ExecOpStat{{ID: 0, Parent: -1, Op: "Hash_join", RowsOut: 64}}})
	completeOK(fr, rec)

	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "trace_id", "ruleset", "admission_wait_us", "optimize_us", "cache", "search", "exec"} {
		if _, ok := got[key]; !ok {
			t.Errorf("record JSON missing %q: %s", key, raw)
		}
	}
	if got["admission_wait_us"] != 2000.0 || got["optimize_us"] != 5000.0 {
		t.Errorf("admission_wait_us %v, optimize_us %v; want 2000 and 5000", got["admission_wait_us"], got["optimize_us"])
	}
}

// TestFlightHTTP drives the debug endpoints through NewMux: index shape,
// record lookup, method and 404 handling.
func TestFlightHTTP(t *testing.T) {
	fr := NewFlightRecorderObserved(FlightConfig{Capacity: 4, SlowThreshold: time.Nanosecond}, nil)
	rec := fr.Begin("")
	rec.Endpoint = "/v1/optimize"
	rec.SetRequestInfo("oodb/volcano", "E1/n3", "default")
	completeOK(fr, rec)

	hs := httptest.NewServer(NewMux(NewRegistry(), fr))
	defer hs.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, b.Bytes()
	}

	resp, body := get("/v1/debug/requests")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	var idx struct {
		Capacity int `json:"capacity"`
		Requests []struct {
			ID    string `json:"id"`
			Class string `json:"class"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("index not JSON: %v\n%s", err, body)
	}
	if idx.Capacity != 4 || len(idx.Requests) != 1 || idx.Requests[0].ID != rec.ID || idx.Requests[0].Class != "slow" {
		t.Fatalf("index = %+v", idx)
	}

	resp, body = get("/v1/debug/requests/" + rec.ID)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(rec.ID)) {
		t.Fatalf("record fetch: status %d body %s", resp.StatusCode, body)
	}
	resp, _ = get("/v1/debug/requests/ffffffffffffffff")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}

	for _, path := range []string{"/v1/debug/requests", "/v1/debug/requests/" + rec.ID} {
		pr, err := http.Post(hs.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		pr.Body.Close()
		if pr.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: status %d, want 405", path, pr.StatusCode)
		}
	}

	resp, body = get("/")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("/v1/debug/requests")) {
		t.Fatalf("root index does not list the recorder: %s", body)
	}
}

// TestRecordQueryParamsRejected: /v1/debug/requests/{id} takes no query
// parameters. ?format=trace, the per-request Chrome export, is gone with
// the phase timeline it drew; it and any other parameter are a 400 naming
// it, not the plain record silently.
func TestRecordQueryParamsRejected(t *testing.T) {
	fr := NewFlightRecorderObserved(FlightConfig{Capacity: 4, SlowThreshold: time.Nanosecond}, nil)
	rec := fr.Begin("")
	completeOK(fr, rec)
	mux := NewMux(NewRegistry(), fr)
	for _, param := range []string{"format", "pretty"} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/debug/requests/"+rec.ID+"?"+param+"=trace", nil))
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), `"`+param+`"`) {
			t.Errorf("?%s=trace: status %d: %s; want 400 naming %q", param, rr.Code, rr.Body, param)
		}
	}
}

// TestFlightReadersWhileRecording: records are read without a lock, which
// is sound because a record is complete before Complete publishes it.
// Writers fill and publish records while readers render the index and
// every retained record; `make race` runs it under the race detector.
func TestFlightReadersWhileRecording(t *testing.T) {
	fr := NewFlightRecorderObserved(FlightConfig{Capacity: 8, SlowThreshold: time.Microsecond}, nil)
	mux := NewMux(NewRegistry(), fr)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := fr.Begin("")
				rec.Endpoint = "/v1/optimize"
				rec.SetRequestInfo("oodb/volcano", "E1/n3", "default")
				rec.SetAdmissionWait(time.Duration(i))
				rec.SetOptimize(time.Duration(i) * time.Microsecond)
				rec.SetCache("miss", 1)
				rec.SetExec(ExecInfo{Rows: i, Ops: []ExecOpStat{{Parent: -1, Op: "File_scan"}}})
				completeOK(fr, rec)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rr := httptest.NewRecorder()
				mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/debug/requests", nil))
				for _, rec := range fr.records() {
					if _, err := json.Marshal(rec); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := fr.completed.Value(); got != 800 {
		t.Fatalf("completed = %d, want 800", got)
	}
}

// TestPrometheusLabelEscaping: label values with quotes, backslashes,
// and newlines must escape cleanly in the Prometheus exposition (the
// flight counters use Label for their class dimension).
func TestPrometheusLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Label("prairie_flight_kept_total", "class", "sl\"ow\\x\ny")).Add(3)
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	want := `prairie_flight_kept_total{class="sl\"ow\\x\ny"} 3`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, b.String())
	}
}
