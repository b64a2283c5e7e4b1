// Package obs is the optimizer observability layer: a low-overhead
// metrics registry (atomic counters, gauges, and fixed-bucket
// histograms), the server's per-request flight recorder, a leveled
// logger, and an HTTP exposition surface (Prometheus text,
// net/http/pprof, flight records).
//
// The package is dependency-free (stdlib only) and every entry point is
// nil-safe: calls on a nil *Registry, *FlightRecorder, or *Observer
// reduce to a single predictable branch, so instrumented code paths
// cost nothing measurable when observation is disabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe (zero).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing atomic float metric
// (seconds totals and other fractional accumulations).
type FloatCounter struct{ bits atomic.Uint64 }

// Add increments the counter by v via a CAS loop. Nil-safe.
func (c *FloatCounter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total. Nil-safe (zero).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an atomic float metric holding the latest (or maximum)
// observed value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Max lifts the gauge to v if v exceeds the current value. Nil-safe.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value. Nil-safe (zero).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Observations land
// in the first bucket whose upper bound is >= the value; values above
// every bound land in the implicit +Inf bucket. All operations are
// atomic, so concurrent observers need no locking.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     FloatCounter
}

// DurationBuckets are the default latency bounds in seconds: 1µs to 16s
// in powers of four — wide enough for a single rule firing and a whole
// degraded E4 sweep alike.
var DurationBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4, 16,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations. Nil-safe (zero).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations. Nil-safe (zero).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Registry is a named-metric store. Lookup (get-or-create) takes a
// mutex; recording on the returned metric is lock-free, so hot paths
// should hold on to the metric rather than re-resolving the name.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	floats map[string]*FloatCounter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		floats: map[string]*FloatCounter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// labelEscaper escapes a label value; a Replacer is safe for concurrent
// use, so one serves every call.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders a Prometheus-style series name with one label pair,
// escaping backslashes, quotes, and newlines in the value.
func Label(name, key, value string) string {
	return name + `{` + key + `="` + labelEscaper.Replace(value) + `"}`
}

// Counter returns (creating if needed) the named counter. Nil-safe: a
// nil registry returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// FloatCounter returns (creating if needed) the named float counter.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.floats[name]
	if !ok {
		c = &FloatCounter{}
		r.floats[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; bounds
// apply only on creation (nil uses DurationBuckets). Histogram names
// must not carry labels — the exposition appends _bucket/_sum/_count.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// family strips a label suffix from a series name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	typed := func(names []string, kind string, emit func(string)) {
		lastFam := ""
		for _, n := range names {
			if f := family(n); f != lastFam {
				fmt.Fprintf(w, "# TYPE %s %s\n", f, kind)
				lastFam = f
			}
			emit(n)
		}
	}
	typed(sortedKeys(r.counts), "counter", func(n string) {
		fmt.Fprintf(w, "%s %d\n", n, r.counts[n].Value())
	})
	typed(sortedKeys(r.floats), "counter", func(n string) {
		fmt.Fprintf(w, "%s %g\n", n, r.floats[n].Value())
	})
	typed(sortedKeys(r.gauges), "gauge", func(n string) {
		fmt.Fprintf(w, "%s %g\n", n, r.gauges[n].Value())
	})
	typed(sortedKeys(r.hists), "histogram", func(n string) {
		h := r.hists[n]
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", n, b, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count())
		fmt.Fprintf(w, "%s_sum %g\n", n, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count())
	})
}
