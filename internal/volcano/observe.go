package volcano

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"prairie/internal/obs"
)

// recordRun flushes one finished optimization into the metrics
// registry. It runs only at run end — never on hot paths — so per-rule
// counters cost one lookup per rule and optimization, not one atomic per
// firing, under series names the rule set built once (ruleIndex.series).
func recordRun(ob *obs.Observer, rs *RuleSet, s *Stats, elapsed time.Duration, err error) {
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
	series := rs.index().series
	flush := func(row int, matched, fired int, d time.Duration) {
		if matched != 0 {
			reg.Counter(series[row].matched).Add(int64(matched))
		}
		if fired != 0 {
			reg.Counter(series[row].fired).Add(int64(fired))
		}
		if d != 0 {
			reg.FloatCounter(series[row].seconds).Add(d.Seconds())
		}
	}
	for i, r := range rs.Trans {
		flush(i, s.TransMatched[r.Name], s.TransFired[r.Name], s.TransTime[r.Name])
	}
	row := len(rs.Trans)
	for i, r := range rs.Impls {
		flush(row+i, s.ImplMatched[r.Name], s.ImplFired[r.Name], s.ImplTime[r.Name])
	}
	row += len(rs.Impls)
	for i, e := range rs.Enforcers {
		flush(row+i, 0, s.EnfFired[e.Name], 0)
	}
}

// ruleSeries names the metric series of one rule's ledger row.
type ruleSeries struct{ matched, fired, seconds string }

// newRuleSeries labels the series of a rule of the given kind ("trans",
// "impl" or "enforcer"; an enforcer's matches and time are not flushed).
func newRuleSeries(kind, name string) ruleSeries {
	label := func(series string) string { return obs.Label("prairie_"+kind+"_"+series, "rule", name) }
	return ruleSeries{matched: label("matched_total"), fired: label("fired_total"), seconds: label("seconds_total")}
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
	for w := g.winners; w != nil; w = w.next {
		plan := "(no feasible plan)"
		if w.plan != nil {
			plan = fmt.Sprintf("%s (cost %.1f)", w.plan, w.cost)
		}
		rows = append(rows, wrow{reqString(w.req, phys), plan})
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
