package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped flight recorder (DESIGN.md §4.13):
// one RequestRecord per served request, capturing the full decision
// trail — admission wait, cache lookup outcome, search phases,
// degradation, and per-operator executor stats — retained in a
// lock-free ring so the last N slow/degraded/errored requests can be
// reconstructed after the fact from /v1/debug/requests/{id}. Normal
// (fast, clean) traffic is reservoir-sampled instead of ring-buffered,
// so a healthy head of zipfian hits cannot evict the one request you
// need to debug.
//
// Like every obs sink, the recorder is free when off: a nil
// *FlightRecorder — or a zero-capacity handle — returns nil records,
// and every method on a nil *RequestRecord is a no-op, keeping the
// serving path byte-identical to a recorder-less build.

// Phase names one timed stage of a request's lifecycle.
type Phase string

const (
	PhaseAdmission Phase = "admission" // queue wait before an optimize slot
	PhaseCache     Phase = "cache"     // plan-cache acquire (+ flight wait)
	PhaseFull      Phase = "full"      // full branch-and-bound search
	PhaseExec      Phase = "exec"      // plan compilation + execution
)

// PhaseSpan is one timed phase, offset-relative to the request start.
type PhaseSpan struct {
	Phase    Phase `json:"phase"`
	OffsetUS int64 `json:"offset_us"`
	DurUS    int64 `json:"dur_us"`
}

// PhaseClock collects a request's phase spans. The volcano engine
// writes into it through Options.Phases behind one nil check per
// instrumentation point; a nil *PhaseClock discards everything. Safe
// for concurrent use: the debug endpoints read a retained record's
// spans from their own goroutines.
type PhaseClock struct {
	start time.Time
	mu    sync.Mutex
	spans []PhaseSpan
}

// NewPhaseClock starts a clock; offsets are relative to start.
func NewPhaseClock(start time.Time) *PhaseClock { return &PhaseClock{start: start} }

// Observe appends one phase measurement. Nil-safe.
func (pc *PhaseClock) Observe(ph Phase, began time.Time, d time.Duration) {
	if pc == nil {
		return
	}
	span := PhaseSpan{Phase: ph, OffsetUS: began.Sub(pc.start).Microseconds(), DurUS: d.Microseconds()}
	pc.mu.Lock()
	pc.spans = append(pc.spans, span)
	pc.mu.Unlock()
}

// Spans returns a copy of the spans observed so far. Nil-safe.
func (pc *PhaseClock) Spans() []PhaseSpan {
	if pc == nil {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]PhaseSpan, len(pc.spans))
	copy(out, pc.spans)
	return out
}

// Total sums the durations recorded for ph. Nil-safe.
func (pc *PhaseClock) Total(ph Phase) time.Duration {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var us int64
	for _, s := range pc.spans {
		if s.Phase == ph {
			us += s.DurUS
		}
	}
	return time.Duration(us) * time.Microsecond
}

// CacheInfo is the record's plan-cache section.
type CacheInfo struct {
	// Outcome is "hit", "miss", "flight-collapsed" (adopted a concurrent
	// leader's result), or "bypass" (no cache attached).
	Outcome string `json:"outcome"`
	// Epoch is the cache generation the request ran under.
	Epoch uint64 `json:"epoch"`
}

// SearchInfo is the record's search-outcome section.
type SearchInfo struct {
	Groups       int    `json:"groups"`
	Exprs        int    `json:"exprs"`
	TransFired   int    `json:"trans_fired"`
	ImplFired    int    `json:"impl_fired"`
	CostedPlans  int    `json:"costed_plans"`
	BudgetChecks int    `json:"budget_checks,omitempty"`
	Degraded     bool   `json:"degraded,omitempty"`
	DegradeCause string `json:"degrade_cause,omitempty"`
	DegradePath  string `json:"degrade_path,omitempty"`
}

// ExecOpStat is one operator's runtime stats in the record's executor
// section (filled by the exec.ExecStats collector).
type ExecOpStat struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the root
	Op     string `json:"op"`
	// RowsIn sums the children's outputs; RowsOut counts tuples this
	// operator produced.
	RowsIn  int64 `json:"rows_in"`
	RowsOut int64 `json:"rows_out"`
	OpenUS  int64 `json:"open_us"`
	NextUS  int64 `json:"next_us"`
}

// ExecInfo is the record's executor section.
type ExecInfo struct {
	Rows      int          `json:"rows"` // result cardinality
	ElapsedUS int64        `json:"elapsed_us"`
	Ops       []ExecOpStat `json:"ops"`
}

// RequestRecord is one request's flight record. The serving goroutine
// fills it before publication; after Complete it is immutable, and the
// debug endpoints read it under the mutex. Every method on a nil
// *RequestRecord is a no-op, so handler code stays branch-free when the
// recorder is disabled.
type RequestRecord struct {
	ID      string `json:"id"`       // this request's span id (16 hex)
	TraceID string `json:"trace_id"` // W3C trace id (32 hex)
	// ParentSpan is the inbound traceparent's span id, when one came.
	ParentSpan      string      `json:"parent_span,omitempty"`
	Endpoint        string      `json:"endpoint"`
	Ruleset         string      `json:"ruleset,omitempty"`
	Query           string      `json:"query,omitempty"`
	Budget          string      `json:"budget,omitempty"`
	Start           time.Time   `json:"start"`
	ElapsedUS       int64       `json:"elapsed_us"`
	Status          int         `json:"status"`
	Outcome         string      `json:"outcome"` // ok | degraded | error | shed
	Error           string      `json:"error,omitempty"`
	AdmissionWaitUS int64       `json:"admission_wait_us"`
	Cache           *CacheInfo  `json:"cache,omitempty"`
	Search          *SearchInfo `json:"search,omitempty"`
	Exec            *ExecInfo   `json:"exec,omitempty"`
	Phases          []PhaseSpan `json:"phases"`

	pc *PhaseClock
	mu sync.Mutex
}

// PhaseClock returns the record's phase sink (nil when rec is nil, so
// it can be handed to volcano.Options.Phases unconditionally).
func (rec *RequestRecord) PhaseClock() *PhaseClock {
	if rec == nil {
		return nil
	}
	return rec.pc
}

// TraceParent renders the outbound W3C traceparent header for this
// request. Nil-safe (empty).
func (rec *RequestRecord) TraceParent() string {
	if rec == nil {
		return ""
	}
	return "00-" + rec.TraceID + "-" + rec.ID + "-01"
}

// SetRequestInfo fills the request-identity fields. Nil-safe.
func (rec *RequestRecord) SetRequestInfo(ruleset, query, budget string) {
	if rec == nil {
		return
	}
	rec.Ruleset, rec.Query, rec.Budget = ruleset, query, budget
}

// SetAdmissionWait records the admission queue wait (also observed as
// the "admission" phase). Nil-safe.
func (rec *RequestRecord) SetAdmissionWait(began time.Time, d time.Duration) {
	if rec == nil {
		return
	}
	rec.AdmissionWaitUS = d.Microseconds()
	rec.pc.Observe(PhaseAdmission, began, d)
}

// SetCache fills the plan-cache section. Nil-safe.
func (rec *RequestRecord) SetCache(outcome string, epoch uint64) {
	if rec == nil {
		return
	}
	rec.Cache = &CacheInfo{Outcome: outcome, Epoch: epoch}
}

// SetSearch fills the search-outcome section. Nil-safe.
func (rec *RequestRecord) SetSearch(si SearchInfo) {
	if rec == nil {
		return
	}
	rec.Search = &si
}

// SetExec fills the executor section. Nil-safe.
func (rec *RequestRecord) SetExec(ei ExecInfo) {
	if rec == nil {
		return
	}
	rec.Exec = &ei
}

// MarshalJSON renders the record with its live phase spans, under the
// post-publication lock.
func (rec *RequestRecord) MarshalJSON() ([]byte, error) {
	type alias RequestRecord // sheds methods; unexported fields are skipped
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.Phases = rec.pc.Spans()
	return json.Marshal((*alias)(rec))
}

// WriteChrome exports the record as a Chrome trace_event file: the
// request's phases on one thread row, loadable directly in
// chrome://tracing or Perfetto.
func (rec *RequestRecord) WriteChrome(w io.Writer) error {
	rec.mu.Lock()
	spans := rec.pc.Spans()
	elapsed := rec.ElapsedUS
	rec.mu.Unlock()
	evs := []TraceEvent{
		{Name: "thread_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": "request " + rec.ID}},
	}
	for _, s := range spans {
		evs = append(evs, TraceEvent{
			Name: string(s.Phase), Cat: "request", Ph: "X",
			TS: float64(s.OffsetUS), Dur: float64(s.DurUS), PID: 1, TID: 1,
		})
	}
	evs = append(evs, TraceEvent{
		Name: "complete", Cat: "request", Ph: "i", TS: float64(elapsed), PID: 1, TID: 1,
		Args: map[string]any{"outcome": rec.Outcome, "status": rec.Status},
	})
	type chromeTrace struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// class buckets a completed record for retention and the kept counter:
// non-ok outcomes keep their name, slow-but-clean requests are "slow",
// and "" means plain normal traffic (reservoir only).
func (rec *RequestRecord) class(slowUS int64) string {
	if rec.Outcome != "ok" {
		return rec.Outcome
	}
	if rec.ElapsedUS >= slowUS {
		return "slow"
	}
	return ""
}

// FlightConfig tunes a FlightRecorder. The zero value is a valid
// disabled handle (Capacity <= 0 records nothing).
type FlightConfig struct {
	// Capacity is the interesting-request ring size: the last Capacity
	// slow, degraded, errored, or shed requests are always retained.
	// <= 0 disables the recorder entirely.
	Capacity int
	// SampleN is the reservoir size for normal traffic (uniform sample
	// over the recorder's lifetime); 0 = Capacity/4, min 16.
	SampleN int
	// SlowThreshold is the latency at or above which a clean request
	// counts as slow (ring-retained); 0 = 250ms.
	SlowThreshold time.Duration
}

func (c FlightConfig) sampleN() int {
	if c.SampleN > 0 {
		return c.SampleN
	}
	n := c.Capacity / 4
	if n < 16 {
		n = 16
	}
	return n
}

func (c FlightConfig) slow() time.Duration {
	if c.SlowThreshold > 0 {
		return c.SlowThreshold
	}
	return 250 * time.Millisecond
}

// FlightRecorder retains completed RequestRecords: a lock-free ring of
// the last Capacity interesting (slow/degraded/errored/shed) requests
// plus an Algorithm-R reservoir of normal traffic. Publication is one
// atomic pointer store per request; readers (the debug endpoints) scan
// the slots without locking writers out.
type FlightRecorder struct {
	cfg    FlightConfig
	slowUS int64

	ring []atomic.Pointer[RequestRecord]
	seq  atomic.Uint64 // interesting records completed (ring cursor)
	res  []atomic.Pointer[RequestRecord]
	resN atomic.Uint64 // normal records completed (reservoir rank)

	seed  uint64
	idctr atomic.Uint64

	// Counters; bound to a registry by NewFlightRecorderObserved.
	completed   *Counter
	keptByClass map[string]*Counter
	sampled     *Counter
}

// NewFlightRecorder returns a recorder; cfg.Capacity <= 0 yields a
// disabled handle whose Begin returns nil records.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	return NewFlightRecorderObserved(cfg, nil)
}

// NewFlightRecorderObserved is NewFlightRecorder with the retention
// counters registered in reg (prairie_flight_*), so sampling behaviour
// shows up on /metrics. A nil reg falls back to standalone counters.
func NewFlightRecorderObserved(cfg FlightConfig, reg *Registry) *FlightRecorder {
	fr := &FlightRecorder{
		cfg:         cfg,
		slowUS:      cfg.slow().Microseconds(),
		seed:        uint64(time.Now().UnixNano()) | 1,
		completed:   &Counter{},
		sampled:     &Counter{},
		keptByClass: map[string]*Counter{},
	}
	for _, class := range []string{"slow", "degraded", "error", "shed"} {
		fr.keptByClass[class] = &Counter{}
	}
	if cfg.Capacity > 0 {
		fr.ring = make([]atomic.Pointer[RequestRecord], cfg.Capacity)
		fr.res = make([]atomic.Pointer[RequestRecord], cfg.sampleN())
	}
	if reg != nil {
		fr.completed = reg.Counter("prairie_flight_completed_total")
		fr.sampled = reg.Counter("prairie_flight_sampled_total")
		for class := range fr.keptByClass {
			fr.keptByClass[class] = reg.Counter(Label("prairie_flight_kept_total", "class", class))
		}
	}
	return fr
}

// Enabled reports whether the recorder retains anything. Nil-safe.
func (fr *FlightRecorder) Enabled() bool { return fr != nil && fr.cfg.Capacity > 0 }

// splitmix64 is the id/reservoir PRNG step (SplitMix64's finalizer) —
// deterministic mixing over an atomic counter needs no locked state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (fr *FlightRecorder) rand() uint64 {
	return splitmix64(fr.idctr.Add(1) ^ fr.seed)
}

// Begin opens a record for one request, honoring an inbound W3C
// traceparent header (the caller joins that trace; otherwise a fresh
// trace id is minted). Returns nil — a fully inert record — when the
// recorder is disabled.
func (fr *FlightRecorder) Begin(traceparent string) *RequestRecord {
	if !fr.Enabled() {
		return nil
	}
	now := time.Now()
	rec := &RequestRecord{
		ID:    fmt.Sprintf("%016x", fr.rand()),
		Start: now,
		pc:    NewPhaseClock(now),
	}
	if tid, parent, ok := parseTraceParent(traceparent); ok {
		rec.TraceID, rec.ParentSpan = tid, parent
	} else {
		rec.TraceID = fmt.Sprintf("%016x%016x", fr.rand(), fr.rand())
	}
	return rec
}

// Complete finalizes and retains rec: interesting records (slow,
// degraded, errored, shed) go to the ring, normal ones through the
// reservoir. Nil-safe in both arguments' senses.
func (fr *FlightRecorder) Complete(rec *RequestRecord) {
	if !fr.Enabled() || rec == nil {
		return
	}
	rec.mu.Lock()
	rec.ElapsedUS = time.Since(rec.Start).Microseconds()
	rec.mu.Unlock()
	fr.completed.Inc()
	if class := rec.class(fr.slowUS); class != "" {
		if c := fr.keptByClass[class]; c != nil {
			c.Inc()
		}
		slot := (fr.seq.Add(1) - 1) % uint64(len(fr.ring))
		fr.ring[slot].Store(rec)
		return
	}
	// Algorithm R: the n-th normal record replaces a uniformly random
	// reservoir slot with probability K/n, giving every normal request an
	// equal chance of surviving regardless of arrival order.
	n := fr.resN.Add(1)
	k := uint64(len(fr.res))
	if n <= k {
		fr.sampled.Inc()
		fr.res[n-1].Store(rec)
		return
	}
	if j := fr.rand() % n; j < k {
		fr.sampled.Inc()
		fr.res[j].Store(rec)
	}
}

// Get returns the retained record with the given id.
func (fr *FlightRecorder) Get(id string) (*RequestRecord, bool) {
	if !fr.Enabled() {
		return nil, false
	}
	for _, slots := range [2][]atomic.Pointer[RequestRecord]{fr.ring, fr.res} {
		for i := range slots {
			if rec := slots[i].Load(); rec != nil && rec.ID == id {
				return rec, true
			}
		}
	}
	return nil, false
}

// records returns every retained record, newest first.
func (fr *FlightRecorder) records() []*RequestRecord {
	var out []*RequestRecord
	for _, slots := range [2][]atomic.Pointer[RequestRecord]{fr.ring, fr.res} {
		for i := range slots {
			if rec := slots[i].Load(); rec != nil {
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// indexEntry is one row of the /v1/debug/requests index.
type indexEntry struct {
	ID        string    `json:"id"`
	Start     time.Time `json:"start"`
	ElapsedUS int64     `json:"elapsed_us"`
	Endpoint  string    `json:"endpoint"`
	Ruleset   string    `json:"ruleset,omitempty"`
	Query     string    `json:"query,omitempty"`
	Outcome   string    `json:"outcome"`
	Status    int       `json:"status"`
	Class     string    `json:"class,omitempty"`
}

// handleIndex serves GET /v1/debug/requests.
func (fr *FlightRecorder) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	recs := fr.records()
	kept := map[string]int64{}
	for class, c := range fr.keptByClass {
		kept[class] = c.Value()
	}
	body := struct {
		Capacity        int              `json:"capacity"`
		SampleN         int              `json:"sample_n"`
		SlowThresholdMS float64          `json:"slow_threshold_ms"`
		Completed       int64            `json:"completed"`
		Kept            map[string]int64 `json:"kept"`
		Sampled         int64            `json:"sampled"`
		Requests        []indexEntry     `json:"requests"`
	}{
		Capacity:        fr.cfg.Capacity,
		SampleN:         fr.cfg.sampleN(),
		SlowThresholdMS: float64(fr.slowUS) / 1000,
		Completed:       fr.completed.Value(),
		Kept:            kept,
		Sampled:         fr.sampled.Value(),
		Requests:        make([]indexEntry, 0, len(recs)),
	}
	for _, rec := range recs {
		rec.mu.Lock()
		e := indexEntry{
			ID: rec.ID, Start: rec.Start, ElapsedUS: rec.ElapsedUS,
			Endpoint: rec.Endpoint, Ruleset: rec.Ruleset, Query: rec.Query,
			Outcome: rec.Outcome, Status: rec.Status, Class: rec.class(fr.slowUS),
		}
		rec.mu.Unlock()
		body.Requests = append(body.Requests, e)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

// handleGet serves GET /v1/debug/requests/{id}; ?format=trace exports
// the record as a Chrome trace instead of the raw JSON record.
func (fr *FlightRecorder) handleGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/debug/requests/")
	rec, ok := fr.Get(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "trace" {
		_ = rec.WriteChrome(w)
		return
	}
	_ = json.NewEncoder(w).Encode(rec)
}

// parseTraceParent splits a W3C traceparent header
// (version-traceid-spanid-flags) into its trace and span ids; ok is
// false for anything malformed, in which case the caller mints a trace.
func parseTraceParent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", "", false
	}
	for _, p := range parts[:3] {
		if !isHex(p) {
			return "", "", false
		}
	}
	// All-zero ids are invalid per the spec.
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}
