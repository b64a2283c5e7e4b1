package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// This file is the benchmark's own span recorder. The traced run wraps
// every call into a layer's public functions in a span — name, start,
// end, the span that caused it, and the operation all spans of one input
// share — keeps them in memory, and writes them out as Chrome
// trace_event JSON when the run ends. Spans inside the program are a
// later change; these are measured from outside.

type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int           // index of the causing span, -1 for an operation's root
	Op         int           // operation id
}

// recorder collects spans from one goroutine. When off, begin and end
// cost one branch, which is how the traced run measures its own
// overhead: operations alternate between recorded and unrecorded.
type recorder struct {
	epoch time.Time
	spans []span
	on    bool
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), on: true} }

// begin opens a span and returns its id (-1 when the recorder is off).
func (r *recorder) begin(name string, parent, op int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = time.Since(r.epoch)
	}
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent, op int, f func()) {
	id := r.begin(name, parent, op)
	f()
	r.end(id)
}

// durations groups span lengths by name, in microseconds.
func (r *recorder) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], us(s.End-s.Start))
	}
	return out
}

// selfTimes groups by name each span's length minus the part of it its
// child spans cover, in microseconds. Children of one span never
// overlap here (one goroutine), so covered time is their sum.
func (r *recorder) selfTimes() map[string][]float64 {
	covered := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range r.spans {
		out[s.Name] = append(out[s.Name], us(s.End-s.Start-covered[i]))
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event "complete" events
// (load the file in chrome://tracing or Perfetto). Operations alternate
// between two rows so neighbouring ones do not visually merge.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	_, _ = w.WriteString("[")
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		if err := enc.Encode(event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: 1 + s.Op%2, Args: map[string]int{"op": s.Op, "span": i, "parent": s.Parent},
		}); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
