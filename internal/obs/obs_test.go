package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.FloatCounter("y").Add(1)
	r.Gauge("z").Set(3)
	r.Histogram("h", nil).Observe(1)
	r.WritePrometheus(io.Discard)
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil registry counter = %d", got)
	}

	var o *Observer
	if o.Enabled() || o.TimingEnabled() || o.MetricsOrNil() != nil {
		t.Fatal("nil observer not inert")
	}
	if (&Observer{}).Enabled() {
		t.Fatal("empty observer reports enabled")
	}
	if (&Observer{Tracer: NewTracer()}).Enabled() {
		t.Fatal("an observer with only the inert tracer reports enabled")
	}
}

func TestRegistryPrometheus(t *testing.T) {
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
	if got := r.Counter(Label("prairie_rule_fired_total", "rule", "join_commute")).Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Label("m", "k", `a"b\c`)
	want := `m{k="a\"b\\c"}`
	if got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
}

var labelSink string

// TestLabelAllocsOnce: a value that needs no escaping costs Label one
// allocation, the series name itself.
func TestLabelAllocsOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { labelSink = Label("prairie_trans_fired_total", "rule", "join_commute") }); n > 1 {
		t.Errorf("Label allocates %v times per call, want at most 1", n)
	}
}

// TestConcurrentRecording hammers every metric kind from many
// goroutines; under -race this verifies the lock-free recording paths
// concurrent requests share.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
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
			}
		}()
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
}

func TestServeExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("prairie_optimize_total").Add(2)
	srv := httptest.NewServer(NewMux(reg, nil))
	defer srv.Close()

	get := func(path string, want int) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics", http.StatusOK); !strings.Contains(body, "prairie_optimize_total 2") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/heap?debug=1", http.StatusOK); len(body) == 0 {
		t.Error("/debug/pprof/heap empty")
	}
	// The registry has one rendering, and the engine writes no span
	// trace to export.
	for _, p := range []string{"/vars", "/trace"} {
		get(p, http.StatusNotFound)
	}
	if body := get("/", http.StatusOK); strings.Contains(body, "/vars") || strings.Contains(body, "/trace") {
		t.Errorf("index lists a removed endpoint:\n%s", body)
	}
}
