package volcano

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stats collects search statistics. The experiments of Section 4 of the
// paper are read off these: equivalence-class counts drive Figure 14,
// distinct matched rules drive Table 5.
type Stats struct {
	Groups   int // equivalence classes after optimization
	Exprs    int // logical expressions after optimization
	Merges   int // group merges (rediscovered equivalences)
	Passes   int // 1 + repair rounds: Rehashes after merges (one round can repair several merges)
	MaxQueue int // peak number of pending worklist entries

	TransMatched map[string]int // structural LHS matches per trans_rule
	TransFired   map[string]int // matches whose cond_code passed
	TransNew     map[string]int // firings that interned or merged anything
	ImplMatched  map[string]int // operator matches per impl_rule
	ImplFired    map[string]int // matches whose cond passed
	EnfMatched   map[string]int // enforcer considerations
	EnfFired     map[string]int // enforcers applied

	Winners     int // (group, property-vector) optimizations performed
	CostedPlans int // physical alternatives costed
	Pruned      int // alternatives abandoned by branch-and-bound

	// Degraded reports that the search hit its Budget (or its context
	// was cancelled) and the plan came from graceful degradation rather
	// than a completed search; DegradeCause says which bound tripped and
	// DegradePath how the plan was produced (DegradePathMemo or
	// DegradePathGreedy). All other counters then describe the work
	// actually done on the run's one memo, the fallback's costing
	// included.
	Degraded     bool
	DegradeCause Cause
	DegradePath  string

	// TransTime and ImplTime attribute wall time to individual rules
	// when per-rule timing is enabled (obs.Observer.RuleTiming):
	// TransTime is the time spent matching and firing each trans_rule
	// (with the worklist work up to the next application), ImplTime the
	// self time spent costing each impl_rule's alternatives (input
	// recursion excluded). A stopwatch charges one rule at a time, so
	// their sum stays within the search's wall time. Both stay nil on
	// unobserved runs so Stats render byte-identically to previous
	// releases.
	TransTime map[string]time.Duration
	ImplTime  map[string]time.Duration

	// Plan-cache accounting (all zero when no cache is attached, so
	// cacheless runs render byte-identically to previous releases):
	// CacheHits counts runs served from the cross-query plan cache
	// (including singleflight adoptions), CacheMisses runs that searched,
	// FlightWaits runs that waited behind a concurrent identical search,
	// and FlightShared those waits that adopted the leader's result.
	CacheHits    int
	CacheMisses  int
	FlightWaits  int
	FlightShared int

	// MemoBytes is a rough end-of-run estimate of the memo's heap
	// footprint (see Memo.MemEstimate).
	MemoBytes int64
	// BudgetChecks counts budget checkpoints evaluated during the run
	// (zero for unbudgeted runs — the checkpoints are gated off).
	BudgetChecks int
}

// NewStats returns zeroed statistics.
func NewStats() *Stats {
	s := &Stats{}
	s.ensureMaps()
	return s
}

// ensureMaps makes the per-rule counter maps writable. An Optimizer's
// Stats start without them — a run the plan cache answers never counts a
// rule — and the search makes them on its way in.
func (s *Stats) ensureMaps() {
	if s.TransMatched != nil {
		return
	}
	s.TransMatched = map[string]int{}
	s.TransFired = map[string]int{}
	s.TransNew = map[string]int{}
	s.ImplMatched = map[string]int{}
	s.ImplFired = map[string]int{}
	s.EnfMatched = map[string]int{}
	s.EnfFired = map[string]int{}
}

// DistinctTransMatched returns how many distinct trans_rules matched at
// least one sub-expression (the paper's Table 5 "trans_rules matched").
func (s *Stats) DistinctTransMatched() int { return countNonZero(s.TransMatched) }

// DistinctTransFired returns how many distinct trans_rules actually
// fired (their cond_code passed on at least one match) — the paper's
// matched-versus-applicable distinction, §4.3.
func (s *Stats) DistinctTransFired() int { return countNonZero(s.TransFired) }

// DistinctImplMatched returns how many distinct impl_rules matched (the
// paper's Table 5 "impl_rules matched").
func (s *Stats) DistinctImplMatched() int { return countNonZero(s.ImplMatched) }

// DistinctImplFired returns how many distinct impl_rules actually applied
// (their cond passed on at least one match).
func (s *Stats) DistinctImplFired() int { return countNonZero(s.ImplFired) }

func countNonZero(m map[string]int) int {
	n := 0
	for _, v := range m {
		if v > 0 {
			n++
		}
	}
	return n
}

// RuleTimeTable renders the per-rule wall-time attribution collected
// under obs.Observer.RuleTiming as an aligned table, most expensive
// rule first; it returns "" when timing was not enabled. Trans rows
// report match+fire time, match/fire counts and, as new, the firings
// that changed the memo (the rest rediscovered what it held); impl rows
// report costing self time (input recursion excluded) and matched/fired
// counts.
func (s *Stats) RuleTimeTable() string {
	if len(s.TransTime) == 0 && len(s.ImplTime) == 0 {
		return ""
	}
	type row struct {
		kind, rule       string
		t                time.Duration
		matched, applied int
		new              string
	}
	var rows []row
	for r, d := range s.TransTime {
		rows = append(rows, row{"trans", r, d, s.TransMatched[r], s.TransFired[r], fmt.Sprint(s.TransNew[r])})
	}
	for r, d := range s.ImplTime {
		rows = append(rows, row{"impl", r, d, s.ImplMatched[r], s.ImplFired[r], "-"})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].t != rows[j].t {
			return rows[i].t > rows[j].t
		}
		return rows[i].rule < rows[j].rule
	})
	var total time.Duration
	width := len("rule")
	for _, r := range rows {
		total += r.t
		if len(r.rule) > width {
			width = len(r.rule)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  kind   time(ms)   %%      matched  fired    new\n", width, "rule")
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.t) / float64(total)
		}
		fmt.Fprintf(&b, "%-*s  %-6s %9.3f  %5.1f  %7d  %5d  %5s\n",
			width, r.rule, r.kind, float64(r.t.Microseconds())/1000, pct, r.matched, r.applied, r.new)
	}
	fmt.Fprintf(&b, "total attributed: %.3fms over %d rules\n",
		float64(total.Microseconds())/1000, len(rows))
	return b.String()
}

// String renders a compact multi-line summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "groups=%d exprs=%d merges=%d passes=%d queue=%d winners=%d costed=%d pruned=%d",
		s.Groups, s.Exprs, s.Merges, s.Passes, s.MaxQueue, s.Winners, s.CostedPlans, s.Pruned)
	if s.Degraded {
		fmt.Fprintf(&b, " DEGRADED(%s via %s)", s.DegradeCause, s.DegradePath)
	}
	b.WriteByte('\n')
	if s.CacheHits+s.CacheMisses+s.FlightWaits+s.FlightShared > 0 {
		fmt.Fprintf(&b, "cache: hits=%d misses=%d waits=%d shared=%d\n",
			s.CacheHits, s.CacheMisses, s.FlightWaits, s.FlightShared)
	}
	fmt.Fprintf(&b, "trans matched=%d fired=%d; impl matched=%d fired=%d\n",
		s.DistinctTransMatched(), s.DistinctTransFired(),
		s.DistinctImplMatched(), s.DistinctImplFired())
	for _, line := range []struct {
		label string
		m     map[string]int
	}{{"trans", s.TransMatched}, {"impl", s.ImplMatched}, {"enforcer", s.EnfFired}} {
		if len(line.m) == 0 {
			continue
		}
		keys := make([]string, 0, len(line.m))
		for k := range line.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s:", line.label)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, line.m[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
