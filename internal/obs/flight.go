package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the request-scoped flight recorder (DESIGN.md §4.13):
// one RequestRecord per served request, capturing the full decision
// trail — admission wait, optimize time and the cache outcome it was
// spent on, degradation, and per-operator executor stats — retained in a
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
// fills it before Complete publishes it (an atomic store); it is
// immutable afterwards, so the debug endpoints read it without locking.
// Every method on a nil *RequestRecord is a no-op, so handler code stays
// branch-free when the recorder is disabled.
type RequestRecord struct {
	ID      string `json:"id"`       // this request's span id (16 hex)
	TraceID string `json:"trace_id"` // W3C trace id (32 hex)
	// ParentSpan is the inbound traceparent's span id, when one came.
	ParentSpan      string    `json:"parent_span,omitempty"`
	Endpoint        string    `json:"endpoint"`
	Ruleset         string    `json:"ruleset,omitempty"`
	Query           string    `json:"query,omitempty"`
	Budget          string    `json:"budget,omitempty"`
	Start           time.Time `json:"start"`
	ElapsedUS       int64     `json:"elapsed_us"`
	Status          int       `json:"status"`
	Outcome         string    `json:"outcome"` // ok | degraded | error | shed
	Error           string    `json:"error,omitempty"`
	AdmissionWaitUS int64     `json:"admission_wait_us"`
	// OptimizeUS is the optimize call's wall time, the response's
	// elapsed_us; Cache.Outcome says what it was spent on.
	OptimizeUS int64       `json:"optimize_us"`
	Cache      *CacheInfo  `json:"cache,omitempty"`
	Search     *SearchInfo `json:"search,omitempty"`
	Exec       *ExecInfo   `json:"exec,omitempty"`
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

// SetAdmissionWait records the admission queue wait. Nil-safe.
func (rec *RequestRecord) SetAdmissionWait(d time.Duration) {
	if rec == nil {
		return
	}
	rec.AdmissionWaitUS = d.Microseconds()
}

// SetOptimize records the optimize call's wall time. Nil-safe.
func (rec *RequestRecord) SetOptimize(d time.Duration) {
	if rec == nil {
		return
	}
	rec.OptimizeUS = d.Microseconds()
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
	// SlowThreshold is the latency at or above which a clean request
	// counts as slow (ring-retained); 0 = 250ms.
	SlowThreshold time.Duration
}

// sampleN is the reservoir size for normal traffic (a uniform sample
// over the recorder's lifetime): Capacity/4, at least 16.
func (c FlightConfig) sampleN() int { return max(c.Capacity/4, 16) }

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

// NewFlightRecorderObserved returns a recorder whose retention counters
// are registered in reg (prairie_flight_*), so sampling behaviour shows
// up on /metrics; a nil reg keeps standalone counters. cfg.Capacity <= 0
// yields a disabled handle whose Begin returns nil records.
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
	rec := &RequestRecord{
		ID:    fmt.Sprintf("%016x", fr.rand()),
		Start: time.Now(),
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
	rec.ElapsedUS = time.Since(rec.Start).Microseconds()
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
		body.Requests = append(body.Requests, indexEntry{
			ID: rec.ID, Start: rec.Start, ElapsedUS: rec.ElapsedUS,
			Endpoint: rec.Endpoint, Ruleset: rec.Ruleset, Query: rec.Query,
			Outcome: rec.Outcome, Status: rec.Status, Class: rec.class(fr.slowUS),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

// handleGet serves GET /v1/debug/requests/{id}: the record as JSON. The
// endpoint takes no query parameters: one is a 400 naming it.
func (fr *FlightRecorder) handleGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	for name := range r.URL.Query() {
		http.Error(w, fmt.Sprintf("unknown query parameter %q", name), http.StatusBadRequest)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/debug/requests/")
	rec, ok := fr.Get(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
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
