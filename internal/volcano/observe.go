package volcano

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"prairie/internal/obs"
)

// addImplTime accumulates costing self time for one impl_rule.
func (o *Optimizer) addImplTime(rule string, d time.Duration) {
	if o.Stats.ImplTime == nil {
		o.Stats.ImplTime = map[string]time.Duration{}
	}
	o.Stats.ImplTime[rule] += d
}

// recordRun flushes one finished optimization into the metrics
// registry. It runs only at run end — never on hot paths — so per-rule
// counters cost one map walk per optimization, not one atomic per
// firing.
func recordRun(ob *obs.Observer, s *Stats, elapsed time.Duration, err error) {
	reg := ob.MetricsOrNil()
	if reg == nil {
		return
	}
	reg.Counter("prairie_optimize_total").Inc()
	if err != nil {
		reg.Counter("prairie_optimize_errors_total").Inc()
	}
	reg.Histogram("prairie_optimize_seconds", nil).Observe(elapsed.Seconds())
	if s == nil {
		return
	}
	if s.Degraded {
		reg.Counter(obs.Label("prairie_optimize_degraded_total", "cause", s.DegradeCause.String())).Inc()
	}
	reg.Counter("prairie_memo_groups_total").Add(int64(s.Groups))
	reg.Counter("prairie_memo_exprs_total").Add(int64(s.Exprs))
	reg.Counter("prairie_memo_merges_total").Add(int64(s.Merges))
	reg.Counter("prairie_budget_checkpoints_total").Add(int64(s.BudgetChecks))
	reg.Counter("prairie_costed_plans_total").Add(int64(s.CostedPlans))
	reg.Counter("prairie_pruned_total").Add(int64(s.Pruned))
	if s.CacheHits+s.CacheMisses+s.FlightWaits > 0 {
		reg.Counter("prairie_plancache_hits_total").Add(int64(s.CacheHits))
		reg.Counter("prairie_plancache_misses_total").Add(int64(s.CacheMisses))
		reg.Counter("prairie_plancache_flight_waits_total").Add(int64(s.FlightWaits))
		reg.Counter("prairie_plancache_flight_shared_total").Add(int64(s.FlightShared))
	}
	reg.Gauge("prairie_memo_bytes_estimate").Set(float64(s.MemoBytes))
	reg.Gauge("prairie_worklist_depth_max").Max(float64(s.MaxQueue))
	flushCounts := func(name string, m map[string]int) {
		for r, n := range m {
			reg.Counter(obs.Label(name, "rule", r)).Add(int64(n))
		}
	}
	flushCounts("prairie_trans_matched_total", s.TransMatched)
	flushCounts("prairie_trans_fired_total", s.TransFired)
	flushCounts("prairie_impl_matched_total", s.ImplMatched)
	flushCounts("prairie_impl_fired_total", s.ImplFired)
	flushCounts("prairie_enforcer_fired_total", s.EnfFired)
	for r, d := range s.TransTime {
		reg.FloatCounter(obs.Label("prairie_trans_seconds_total", "rule", r)).Add(d.Seconds())
	}
	for r, d := range s.ImplTime {
		reg.FloatCounter(obs.Label("prairie_impl_seconds_total", "rule", r)).Add(d.Seconds())
	}
}

// ExplainGroup renders one memo group's provenance for debugging: its
// expressions (each with the transformation rule that derived it, or
// "query" for the initial tree), and the memoized winners per required
// physical-property vector. This backs optshell's :explain command —
// the "easy-to-debug" goal applied to the search space itself.
func (o *Optimizer) ExplainGroup(id GroupID) (string, error) {
	m := o.Memo
	if id < 0 || int(id) >= len(m.groups) {
		return "", fmt.Errorf("volcano: no group %d (memo has %d)", id, len(m.groups))
	}
	canon := m.Find(id)
	g := m.groups[canon]
	var b strings.Builder
	fmt.Fprintf(&b, "group %d", id)
	if canon != id {
		fmt.Fprintf(&b, " (merged into %d)", canon)
	}
	fmt.Fprintf(&b, ": %d exprs, rep %s\n", len(g.Exprs), g.rep)
	for _, e := range g.Exprs {
		via := e.via
		if via == "" {
			via = "query"
		}
		flag := ""
		if e.dead {
			flag = " [dead]"
		}
		fmt.Fprintf(&b, "  %-24s via %s (seq %d)%s\n", e.String(), via, e.seq, flag)
	}
	// Winners, sorted by requirement rendering for stable output.
	type wrow struct{ req, plan string }
	var rows []wrow
	phys := o.RS.Class.Phys
	for _, ws := range g.winners {
		for _, w := range ws {
			plan := "(no feasible plan)"
			if w.plan != nil {
				plan = fmt.Sprintf("%s (cost %.1f)", w.plan, w.cost)
			}
			rows = append(rows, wrow{reqString(w.req, phys), plan})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].req < rows[j].req })
	for _, r := range rows {
		fmt.Fprintf(&b, "  winner[%s] = %s\n", r.req, r.plan)
	}
	if len(rows) == 0 {
		b.WriteString("  (no winners computed)\n")
	}
	return b.String(), nil
}
