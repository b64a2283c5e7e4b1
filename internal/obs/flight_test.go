package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// completeOK finalizes rec as a clean 200 and hands it to fr.
func completeOK(fr *FlightRecorder, rec *RequestRecord) {
	rec.Status = http.StatusOK
	rec.Outcome = "ok"
	fr.Complete(rec)
}

// TestFlightDisabled: a zero-capacity recorder is a valid inert handle —
// Begin yields nil records, every record method is a nil-safe no-op, and
// the debug endpoints are not mounted.
func TestFlightDisabled(t *testing.T) {
	for _, fr := range []*FlightRecorder{nil, NewFlightRecorder(FlightConfig{})} {
		if fr.Enabled() {
			t.Fatal("disabled recorder reports Enabled")
		}
		rec := fr.Begin("")
		if rec != nil {
			t.Fatal("disabled Begin returned a record")
		}
		// The full nil-record surface must be inert.
		rec.SetRequestInfo("w", "q", "b")
		rec.SetAdmissionWait(time.Now(), time.Millisecond)
		rec.SetCache("hit", 1)
		rec.SetSearch(SearchInfo{})
		rec.SetExec(ExecInfo{})
		if rec.PhaseClock() != nil || rec.TraceParent() != "" {
			t.Fatal("nil record leaked state")
		}
		fr.Complete(rec)
		if _, ok := fr.Get("anything"); ok {
			t.Fatal("disabled recorder retained a record")
		}
	}

	mux := NewMux(NewRegistry(), nil, NewFlightRecorder(FlightConfig{}))
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/debug/requests", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("disabled recorder mounted /v1/debug/requests: status %d", rr.Code)
	}
}

// TestFlightTraceParent: a valid inbound traceparent is joined (trace id
// adopted, inbound span recorded as parent); malformed or all-zero
// headers mint a fresh trace.
func TestFlightTraceParent(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 4})
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
	fr := NewFlightRecorder(FlightConfig{Capacity: 2, SlowThreshold: time.Nanosecond})
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

// TestFlightReservoir: normal traffic is uniformly sampled, never
// unbounded.
func TestFlightReservoir(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 4, SampleN: 8, SlowThreshold: time.Hour})
	for i := 0; i < 100; i++ {
		completeOK(fr, fr.Begin(""))
	}
	if n := len(fr.records()); n == 0 || n > 8 {
		t.Fatalf("reservoir holds %d records, want 1..8", n)
	}
	if fr.completed.Value() != 100 {
		t.Fatalf("completed = %d, want 100", fr.completed.Value())
	}
	if fr.sampled.Value() < 8 {
		t.Fatalf("sampled = %d, want >= 8", fr.sampled.Value())
	}
}

// TestFlightRecordJSON: a fully populated record round-trips through its
// JSON form with every section and the phase timeline materialized, and
// exports a well-formed per-request Chrome trace.
func TestFlightRecordJSON(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 4, SlowThreshold: time.Nanosecond})
	rec := fr.Begin("")
	rec.Endpoint = "/v1/optimize"
	rec.SetRequestInfo("oodb/volcano", "E2/n3", "interactive")
	now := time.Now()
	rec.SetAdmissionWait(now, 2*time.Millisecond)
	rec.PhaseClock().Observe(PhaseFull, now, 5*time.Millisecond)
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
	for _, key := range []string{"id", "trace_id", "ruleset", "admission_wait_us", "cache", "search", "exec", "phases"} {
		if _, ok := got[key]; !ok {
			t.Errorf("record JSON missing %q: %s", key, raw)
		}
	}
	phases, _ := got["phases"].([]any)
	if len(phases) != 2 {
		t.Fatalf("phases = %v, want admission + full", got["phases"])
	}

	var b bytes.Buffer
	if err := rec.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
}

// TestFlightHTTP drives the debug endpoints through NewMux: index shape,
// record lookup, Chrome export, method and 404 handling.
func TestFlightHTTP(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Capacity: 4, SlowThreshold: time.Nanosecond})
	rec := fr.Begin("")
	rec.Endpoint = "/v1/optimize"
	rec.SetRequestInfo("oodb/volcano", "E1/n3", "default")
	completeOK(fr, rec)

	hs := httptest.NewServer(NewMux(NewRegistry(), NewTracer(), fr))
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
	resp, body = get("/v1/debug/requests/" + rec.ID + "?format=trace")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("traceEvents")) {
		t.Fatalf("trace export: status %d body %s", resp.StatusCode, body)
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
