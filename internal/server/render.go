package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"prairie/internal/core"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// This file writes the optimize response. A response is a small
// per-request envelope (elapsed_us, cache_hit, stats, …) around a plan
// that is byte-identical for every request one cache entry answers, so
// the plan's bytes are rendered once per entry — kept in the entry's
// volcano.Rendering slot — and spliced verbatim into an envelope that is
// assembled by appending into a pooled buffer. The bytes are exactly
// those json.NewEncoder wrote for OptimizeResponse (TestResponseBytes
// holds them to that); encoding/json itself is kept
// off the path, json.RawMessage included: the encoder re-scans a raw
// message byte by byte to compact it, which alone measured 16% of the
// server's CPU on warm hits.

// planBytes is the rendering of one plan: what a cache entry's slot
// holds.
type planBytes struct {
	text string  // plan.String()
	cost float64 // plan.Cost
	// head is `"plan_text":"…"` as the response carries it.
	head []byte
	// plan is `,"plan":{…}` — json.Marshal(wire.EncodePlan(src)) — made
	// by the first request that asks for include_plan, so a miss that
	// does not ask never encodes.
	once sync.Once
	src  *core.Expr
	plan []byte
	err  error
}

// renderPlan is the one renderer behind /v1/optimize. A nil slot (a
// plan no cache entry stands behind) renders afresh.
func renderPlan(slot *volcano.Rendering, plan *core.Expr, class core.Classification) *planBytes {
	return slot.Do(func() any {
		pb := &planBytes{text: plan.String(), cost: plan.Cost(class), src: plan}
		pb.head = appendString(append(make([]byte, 0, len(pb.text)+16), `"plan_text":`...), pb.text)
		return pb
	}).(*planBytes)
}

// planJSON returns the `,"plan":{…}` fragment, encoding it on first use.
func (pb *planBytes) planJSON() ([]byte, error) {
	pb.once.Do(func() {
		var node *wire.PlanNode
		if node, pb.err = wire.EncodePlan(pb.src); pb.err == nil {
			var b []byte
			if b, pb.err = json.Marshal(node); pb.err == nil {
				pb.plan = append(append(make([]byte, 0, len(b)+8), `,"plan":`...), b...)
			}
		}
		pb.src = nil
	})
	return pb.plan, pb.err
}

// appendString appends s as encoding/json writes a string (HTML
// escaping on). Envelope strings are names; anything that needs an
// escape takes the encoder's own path.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json writes a float64; outside the
// plain-decimal range (and for NaN and ±Inf, which are errors) it takes
// the encoder's own path.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if abs := math.Abs(f); abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	q, err := json.Marshal(f)
	return append(b, q...), err
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendJSON appends the response object exactly as encoding/json
// renders OptimizeResponse, with the entry's rendered plan_text and plan
// in place of the PlanText and Plan fields.
func (r *OptimizeResponse) appendJSON(b []byte) ([]byte, error) {
	str := func(key, v string) {
		if v != "" {
			b = appendString(append(b, key...), v)
		}
	}
	b = appendString(append(b, `{"ruleset":`...), r.Ruleset)
	b = appendString(append(b, `,"query":{"family":`...), r.Query.Family)
	b = appendInt(b, `,"n":`, int64(r.Query.N))
	str(`,"graph":`, r.Query.Graph)
	b = append(b, `},`...)
	b = append(b, r.head...)
	b = append(b, r.plan...)
	b, err := appendFloat(append(b, `,"cost":`...), r.Cost)
	if err != nil {
		return b, err
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	str(`,"degrade_cause":`, r.DegradeCause)
	str(`,"degrade_path":`, r.DegradePath)
	b = strconv.AppendBool(append(b, `,"cache_hit":`...), r.CacheHit)
	b = appendInt(b, `,"elapsed_us":`, r.ElapsedUS)
	b = appendInt(b, `,"stats":{"groups":`, int64(r.Stats.Groups))
	b = appendInt(b, `,"exprs":`, int64(r.Stats.Exprs))
	b = appendInt(b, `,"trans_fired":`, int64(r.Stats.TransFired))
	b = appendInt(b, `,"impl_fired":`, int64(r.Stats.ImplFired))
	b = appendInt(b, `,"costed_plans":`, int64(r.Stats.CostedPlan))
	b = append(b, '}')
	if x := r.Exec; x != nil {
		b = appendInt(b, `,"exec":{"rows":`, int64(x.Rows))
		b = appendInt(b, `,"elapsed_us":`, x.ElapsedUS)
		b = append(b, '}')
	}
	str(`,"request_id":`, r.RequestID)
	return append(b, '}'), nil
}

// bodyPool recycles response buffers; 16 KB holds every response of the
// shipped worlds without growing.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

var jsonContentType = []string{"application/json"}

// writeAppended assembles resp in a pooled buffer and sends it with its
// Content-Length (so net/http does not chunk it) in one Write, the
// encoder's trailing newline included. On an error nothing has been
// written.
func writeAppended(w http.ResponseWriter, code int, resp *OptimizeResponse) error {
	bp := bodyPool.Get().(*[]byte)
	b, err := resp.appendJSON((*bp)[:0])
	if err == nil {
		b = append(b, '\n')
		h := w.Header()
		h["Content-Type"] = jsonContentType
		h["Content-Length"] = []string{strconv.Itoa(len(b))}
		w.WriteHeader(code)
		_, _ = w.Write(b)
	}
	if cap(b) <= 64<<10 { // an outsized plan's buffer is not worth keeping
		*bp = b
		bodyPool.Put(bp)
	}
	return err
}
