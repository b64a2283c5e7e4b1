package volcano

import (
	"strings"
	"testing"
	"time"

	"prairie/internal/core"
	"prairie/internal/obs"
)

// optimizeWith runs one optimization of the same query under the given
// observer and returns the plan rendering, the stats rendering, and the
// optimizer (for memo inspection).
func optimizeWith(t *testing.T, ob *obs.Observer) (string, string, *Optimizer) {
	t.Helper()
	w := newTestWorld()
	opt := NewOptimizer(w.rs)
	opt.Opts.Obs = ob
	plan, err := opt.Optimize(w.chain(16, 8, 4, 2), nil)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return plan.String(), opt.Stats.String(), opt
}

// TestObserverNeutral pins the byte-identical guarantee: plans and
// Stats renderings must not change whether observability is absent
// (Obs nil), attached but fully disabled (empty Observer), or fully
// enabled — instrumentation may only add side-channel data.
func TestObserverNeutral(t *testing.T) {
	basePlan, baseStats, _ := optimizeWith(t, nil)
	full := &obs.Observer{Metrics: obs.NewRegistry(), RuleTiming: true}
	for name, ob := range map[string]*obs.Observer{
		"disabled": {},
		"enabled":  full,
	} {
		plan, stats, _ := optimizeWith(t, ob)
		if plan != basePlan {
			t.Errorf("%s observer changed the plan:\n got %s\nwant %s", name, plan, basePlan)
		}
		if stats != baseStats {
			t.Errorf("%s observer changed Stats.String():\n got %q\nwant %q", name, stats, baseStats)
		}
	}
	// The enabled run must actually have produced observations.
	if got := full.Metrics.Counter("prairie_optimize_total").Value(); got != 1 {
		t.Errorf("prairie_optimize_total = %d, want 1", got)
	}
}

// TestRuleTimingAttribution: with RuleTiming on, every fired trans rule
// and every matched impl rule gets wall time attributed, and the table
// renders; with timing off the maps stay nil (the byte-identical path).
// The stopwatch charges one rule at a time, an impl rule its self time
// only, so the attributed times sum to no more than the call's wall time.
func TestRuleTimingAttribution(t *testing.T) {
	w := newTestWorld()
	timed := NewOptimizer(w.rs)
	timed.Opts.Obs = &obs.Observer{RuleTiming: true}
	req := w.alg.NewDesc()
	req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
	begin := time.Now()
	if _, err := timed.Optimize(w.chain(64, 32, 16, 8, 4, 2), req); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(begin)
	var sum time.Duration
	for _, d := range timed.Stats.TransTime {
		sum += d
	}
	for _, d := range timed.Stats.ImplTime {
		sum += d
	}
	if sum > wall {
		t.Errorf("rules were charged %v in a call of %v: some time was charged twice", sum, wall)
	}

	_, _, opt := optimizeWith(t, &obs.Observer{RuleTiming: true})
	s := opt.Stats
	for r, n := range s.TransFired {
		if n > 0 {
			if _, ok := s.TransTime[r]; !ok {
				t.Errorf("fired trans rule %q has no attributed time", r)
			}
		}
	}
	if len(s.ImplTime) == 0 {
		t.Error("no impl rule time attributed")
	}
	table := s.RuleTimeTable()
	if !strings.Contains(table, "total attributed:") {
		t.Errorf("RuleTimeTable missing total line:\n%s", table)
	}
	_, _, off := optimizeWith(t, nil)
	if off.Stats.TransTime != nil || off.Stats.ImplTime != nil {
		t.Error("unobserved run allocated timing maps")
	}
	if off.Stats.RuleTimeTable() != "" {
		t.Error("RuleTimeTable non-empty without timing")
	}
}

// TestExplainGroup: the provenance dump names the deriving rule for
// rewritten expressions, "query" for the initial tree, and lists
// memoized winners; bad ids error instead of panicking.
func TestExplainGroup(t *testing.T) {
	_, _, opt := optimizeWith(t, nil)
	sawVia, sawQuery, sawWinner := false, false, false
	for id := range opt.Memo.groups {
		out, err := opt.ExplainGroup(GroupID(id))
		if err != nil {
			t.Fatalf("group %d: %v", id, err)
		}
		if strings.Contains(out, "via query") {
			sawQuery = true
		} else if strings.Contains(out, "via ") {
			sawVia = true
		}
		if strings.Contains(out, "winner[") {
			sawWinner = true
		}
	}
	if !sawQuery {
		t.Error("no expression attributed to the original query")
	}
	if !sawVia {
		t.Error("no expression attributed to a transformation rule")
	}
	if !sawWinner {
		t.Error("no memoized winners rendered")
	}
	if _, err := opt.ExplainGroup(GroupID(1 << 20)); err == nil {
		t.Error("out-of-range group id did not error")
	}
}

// TestBatchConcurrentObservability drives one shared Observer from four
// goroutines of optimizers at once — the race-detector target for the
// metric registry (run under -race by make race). The shared
// counters must record every optimization, and each run its own
// per-rule timing.
func TestBatchConcurrentObservability(t *testing.T) {
	w := newTestWorld()
	tree := w.chain(8, 4, 2)
	const n = 16
	ob := &obs.Observer{Metrics: obs.NewRegistry(), RuleTiming: true}
	stats := make([]*Stats, n)
	onGoroutines(n, 4, func(i int) {
		o := NewOptimizer(w.rs)
		o.Opts.Obs = ob
		if _, err := o.Optimize(tree.Clone(), nil); err != nil {
			t.Errorf("run %d: %v", i, err)
		}
		stats[i] = o.Stats
	})

	for i, s := range stats {
		if len(s.TransTime) == 0 {
			t.Errorf("run %d: RuleTiming enabled but TransTime is empty", i)
		}
	}
	if got := ob.Metrics.Counter("prairie_optimize_total").Value(); got != n {
		t.Errorf("prairie_optimize_total = %d, want %d", got, n)
	}
}
