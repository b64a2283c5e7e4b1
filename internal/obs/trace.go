package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceEvent is one record in the Chrome trace_event format (the JSON
// schema chrome://tracing and Perfetto consume). Timestamps and
// durations are microseconds relative to the tracer's start.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// DefaultMaxEvents bounds a tracer's buffer; past it, events are
// dropped (and counted) rather than growing without limit under an E4
// sweep.
const DefaultMaxEvents = 1 << 20

// Tracer records nested optimizer spans, instant events, and counter
// samples. It is safe for concurrent use (concurrent optimizers share
// one tracer), and nil-safe: every method on a nil
// *Tracer is a no-op, and spans it returns are inert.
type Tracer struct {
	// MaxEvents overrides DefaultMaxEvents when set before recording; a
	// buffer sized this way is allocated whole by the first event.
	MaxEvents int
	// DropOldest switches the retention policy at the cap: false — the
	// default, right for bounded bench traces — keeps the first
	// MaxEvents events and drops new ones; true turns the buffer into a
	// ring that overwrites the oldest events, which is what a
	// long-running server wants (the recent past matters, startup noise
	// does not). Set before recording. Either way, Dropped counts the
	// events no longer in the buffer, and both expositions carry the
	// count.
	DropOldest bool

	mu      sync.Mutex
	start   time.Time
	events  []TraceEvent
	head    int // ring start when DropOldest has wrapped the buffer
	dropped int64
}

// NewTracer returns an empty tracer; timestamps are relative to now.
func NewTracer() *Tracer { return &Tracer{start: time.Now()} }

func (t *Tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

func (t *Tracer) append(ev TraceEvent) {
	t.mu.Lock()
	max := t.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	switch {
	case len(t.events) < max:
		if t.events == nil && t.MaxEvents > 0 {
			// A sized ring is allocated once; growing it by doubling would
			// copy it a dozen times and leave the copies to the collector.
			t.events = make([]TraceEvent, 0, max)
		}
		t.events = append(t.events, ev)
	case t.DropOldest:
		t.events[t.head] = ev
		t.head = (t.head + 1) % len(t.events)
		t.dropped++
	default:
		t.dropped++
	}
	t.mu.Unlock()
}

// Span is an in-flight duration measurement started by Tracer.Begin.
// The zero Span (and any span from a nil tracer) is inert.
type Span struct {
	t    *Tracer
	tid  int
	name string
	cat  string
	at   time.Time
}

// Begin starts a span on the given thread row. Nil-safe.
func (t *Tracer) Begin(tid int, name, cat string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, tid: tid, name: name, cat: cat, at: time.Now()}
}

// End completes the span with no arguments.
func (s Span) End() { s.EndArgs(nil) }

// EndArgs completes the span, attaching args to the trace event.
func (s Span) EndArgs(args map[string]any) {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.append(TraceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS: s.t.since(s.at), Dur: float64(now.Sub(s.at)) / float64(time.Microsecond),
		PID: 1, TID: s.tid, Args: args,
	})
}

// Instant records a zero-duration marker event. Nil-safe.
func (t *Tracer) Instant(tid int, name, cat string) {
	if t == nil {
		return
	}
	t.append(TraceEvent{Name: name, Cat: cat, Ph: "i", TS: t.since(time.Now()), PID: 1, TID: tid})
}

// Counter records a sampled counter value (rendered by Perfetto as a
// timeline graph — worklist depth, memo size). Nil-safe.
func (t *Tracer) Counter(tid int, name string, value float64) {
	if t == nil {
		return
	}
	t.append(TraceEvent{
		Name: name, Ph: "C", TS: t.since(time.Now()), PID: 1, TID: tid,
		Args: map[string]any{"value": value},
	})
}

// Len returns the number of buffered events. Nil-safe (zero).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events were discarded at the buffer cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// snapshot copies the event buffer — unrolled into chronological order
// when the ring has wrapped — for export without holding the lock
// during encoding. The second return is the dropped count consistent
// with the copied events.
func (t *Tracer) snapshot() ([]TraceEvent, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out, t.dropped
}

// WriteJSONL writes one event per line (JSON-lines); when events were
// dropped at the cap, a trailing metadata event carries the count.
// Nil-safe.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	events, dropped := t.snapshot()
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if dropped > 0 {
		return enc.Encode(TraceEvent{
			Name: "dropped_events", Ph: "M", PID: 1,
			Args: map[string]any{"count": dropped},
		})
	}
	return nil
}

// WriteChrome writes the buffer in the Chrome trace_event JSON object
// format; the file loads directly in chrome://tracing and Perfetto.
// Events dropped at the cap are reported in the top-level
// droppedEvents field.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
	type chromeTrace struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		DroppedEvents   int64        `json:"droppedEvents,omitempty"`
	}
	events, dropped := t.snapshot()
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms", DroppedEvents: dropped})
}
