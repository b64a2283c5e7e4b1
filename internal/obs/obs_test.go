package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.FloatCounter("y").Add(1)
	r.Gauge("z").Set(3)
	r.Histogram("h", nil).Observe(1)
	r.WritePrometheus(io.Discard)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot = %v", got)
	}

	var tr *Tracer
	sp := tr.Begin(1, "a", "b")
	sp.End()
	tr.Instant(1, "i", "c")
	tr.Counter(1, "n", 1)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer recorded events")
	}
	if err := tr.WriteChrome(io.Discard); err != nil {
		t.Fatal(err)
	}

	var o *Observer
	if o.Enabled() || o.TimingEnabled() || o.MetricsOrNil() != nil || o.TracerOrNil() != nil {
		t.Fatal("nil observer not inert")
	}
	if (&Observer{}).Enabled() {
		t.Fatal("empty observer reports enabled")
	}
}

func TestRegistryPrometheusAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("prairie_rule_fired_total", "rule", "join_commute")).Add(3)
	r.Counter(Label("prairie_rule_fired_total", "rule", "join_assoc")).Add(1)
	r.FloatCounter("prairie_rule_seconds_total").Add(0.25)
	r.Gauge("prairie_worklist_depth_max").Max(7)
	r.Gauge("prairie_worklist_depth_max").Max(4) // must not lower
	h := r.Histogram("prairie_optimize_seconds", []float64{0.001, 1})
	h.Observe(0.0005)
	h.Observe(0.5)
	h.Observe(30)

	var b bytes.Buffer
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE prairie_rule_fired_total counter",
		`prairie_rule_fired_total{rule="join_assoc"} 1`,
		`prairie_rule_fired_total{rule="join_commute"} 3`,
		"prairie_rule_seconds_total 0.25",
		"prairie_worklist_depth_max 7",
		`prairie_optimize_seconds_bucket{le="0.001"} 1`,
		`prairie_optimize_seconds_bucket{le="1"} 2`,
		`prairie_optimize_seconds_bucket{le="+Inf"} 3`,
		"prairie_optimize_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	// One TYPE line per family, not per labeled series.
	if n := strings.Count(out, "# TYPE prairie_rule_fired_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}

	snap := r.Snapshot()
	if snap[Label("prairie_rule_fired_total", "rule", "join_commute")] != int64(3) {
		t.Errorf("snapshot counter = %v", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Label("m", "k", `a"b\c`)
	want := `m{k="a\"b\\c"}`
	if got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
}

// TestConcurrentRecording hammers every metric kind and the tracer from
// many goroutines; under -race this verifies the lock-free recording
// paths batch workers share.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := r.Counter("c")
			f := r.FloatCounter("f")
			g := r.Gauge("g")
			h := r.Histogram("h", nil)
			for i := 0; i < per; i++ {
				c.Inc()
				f.Add(0.5)
				g.Max(float64(i))
				h.Observe(float64(i) * 1e-6)
				sp := tr.Begin(tid, "span", "test")
				sp.End()
			}
		}(w + 1)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.FloatCounter("f").Value(); got != workers*per/2 {
		t.Errorf("float counter = %g, want %d", got, workers*per/2)
	}
	if got := r.Histogram("h", nil).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := tr.Len(); got != workers*per {
		t.Errorf("tracer events = %d, want %d", got, workers*per)
	}
}

func TestTracerExportAndCap(t *testing.T) {
	tr := NewTracer()
	tr.MaxEvents = 3
	tr.Instant(1, "start", "optimize")
	sp := tr.Begin(1, "optimize", "optimize")
	time.Sleep(time.Millisecond)
	sp.EndArgs(map[string]any{"groups": 4})
	tr.Instant(1, "trans:join_commute", "rule")
	tr.Counter(1, "worklist_depth", 5) // over cap: dropped
	if tr.Len() != 3 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 3/1", tr.Len(), tr.Dropped())
	}

	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("chrome trace has %d events, want 3", len(doc.TraceEvents))
	}
	var span *TraceEvent
	for i := range doc.TraceEvents {
		if doc.TraceEvents[i].Ph == "X" {
			span = &doc.TraceEvents[i]
		}
	}
	if span == nil || span.Dur <= 0 || span.Name != "optimize" {
		t.Fatalf("missing or malformed complete event: %+v", span)
	}

	b.Reset()
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	// 3 retained events plus the trailing dropped_events marker.
	if len(lines) != 4 {
		t.Fatalf("jsonl lines = %d, want 4", len(lines))
	}
	for _, ln := range lines {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("jsonl line %q: %v", ln, err)
		}
	}
	var marker TraceEvent
	if err := json.Unmarshal([]byte(lines[3]), &marker); err != nil {
		t.Fatal(err)
	}
	if marker.Name != "dropped_events" || marker.Args["count"] != float64(1) {
		t.Fatalf("missing dropped_events marker, got %+v", marker)
	}
}

func TestServeExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("prairie_optimize_total").Add(2)
	tr := NewTracer()
	tr.Instant(1, "x", "t")
	addr, closeFn, err := Serve("127.0.0.1:0", NewMux(reg, tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closeFn() }()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "prairie_optimize_total 2") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/vars"); !strings.Contains(body, "prairie_optimize_total") {
		t.Errorf("/vars missing counter:\n%s", body)
	}
	if body := get("/trace"); !strings.Contains(body, "traceEvents") {
		t.Errorf("/trace not chrome format:\n%s", body)
	}
	if body := get("/debug/pprof/heap?debug=1"); len(body) == 0 {
		t.Error("/debug/pprof/heap empty")
	}
}

// TestSizedRingAllocatedOnce: a tracer given MaxEvents allocates its
// buffer whole on the first event and never grows it — as a ring it
// then keeps the newest events — while the default-sized tracer still
// grows on demand.
func TestSizedRingAllocatedOnce(t *testing.T) {
	tr := NewTracer()
	tr.MaxEvents, tr.DropOldest = 8, true
	tr.Instant(1, "first", "rule")
	if cap(tr.events) != 8 {
		t.Fatalf("ring capacity after one event = %d, want 8", cap(tr.events))
	}
	ring := &tr.events[0]
	for i := 0; i < 20; i++ {
		tr.Instant(1, "later", "rule")
	}
	if &tr.events[0] != ring || tr.Len() != 8 || tr.Dropped() != 13 {
		t.Fatalf("ring moved or miscounted: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	def := NewTracer()
	def.Instant(1, "first", "rule")
	if cap(def.events) >= DefaultMaxEvents {
		t.Fatalf("the default tracer allocated %d events up front", cap(def.events))
	}
}
