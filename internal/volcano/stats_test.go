package volcano

import (
	"strings"
	"testing"
	"time"
)

// TestDistinctTransFired: the accessor counts rules with at least one
// passing cond_code, ignores zero entries, and is what Stats.String()
// prints for "trans ... fired=".
func TestDistinctTransFired(t *testing.T) {
	s := NewStats()
	if got := s.DistinctTransFired(); got != 0 {
		t.Errorf("empty stats: DistinctTransFired() = %d, want 0", got)
	}
	s.TransFired["join_commute"] = 5
	s.TransFired["join_assoc"] = 1
	s.TransFired["never_passed"] = 0
	if got := s.DistinctTransFired(); got != 2 {
		t.Errorf("DistinctTransFired() = %d, want 2", got)
	}
	if !strings.Contains(s.String(), "fired=2;") {
		t.Errorf("String() does not use the accessor value:\n%s", s.String())
	}
}

// TestStatsMerge covers the batch-aggregation primitive: counters and
// per-rule maps sum, MaxQueue takes the max, degradations tally by
// cause without double counting nested aggregates, and merging into a
// fresh Stats leaves the source untouched.
func TestStatsMerge(t *testing.T) {
	a := NewStats()
	a.Groups, a.Exprs, a.MaxQueue, a.CostedPlans = 10, 40, 8, 100
	a.TransFired["join_commute"] = 3
	a.TransTime = map[string]time.Duration{"join_commute": 2 * time.Millisecond}

	b := NewStats()
	b.Groups, b.Exprs, b.MaxQueue, b.CostedPlans = 5, 20, 12, 50
	b.TransFired["join_commute"] = 2
	b.TransFired["join_assoc"] = 7
	b.TransTime = map[string]time.Duration{"join_commute": time.Millisecond}
	b.Degraded = true
	b.DegradeCause = CauseDeadline
	b.DegradePath = DegradePathMemo

	a.Merge(b)
	if a.Groups != 15 || a.Exprs != 60 || a.CostedPlans != 150 {
		t.Errorf("sums wrong: groups=%d exprs=%d costed=%d", a.Groups, a.Exprs, a.CostedPlans)
	}
	if a.MaxQueue != 12 {
		t.Errorf("MaxQueue = %d, want max 12", a.MaxQueue)
	}
	if a.TransFired["join_commute"] != 5 || a.TransFired["join_assoc"] != 7 {
		t.Errorf("per-rule counts not summed: %v", a.TransFired)
	}
	if a.TransTime["join_commute"] != 3*time.Millisecond {
		t.Errorf("per-rule time not summed: %v", a.TransTime)
	}
	if !a.Degraded || a.DegradeCause != CauseDeadline || a.DegradePath != DegradePathMemo {
		t.Errorf("degradation identity not adopted: %+v", a)
	}
	if a.DegradedRuns[CauseDeadline.String()] != 1 {
		t.Errorf("DegradedRuns = %v, want one deadline entry", a.DegradedRuns)
	}
	// b is untouched.
	if b.TransFired["join_commute"] != 2 || b.DegradedRuns != nil {
		t.Errorf("Merge mutated its argument: %+v", b)
	}

	// Merging an aggregate folds its tally without re-counting its
	// Degraded flag.
	c := NewStats()
	c.Degraded = true
	c.DegradeCause = CauseDeadline
	c.DegradedRuns = map[string]int{CauseDeadline.String(): 4, CauseMaxExprs.String(): 1}
	a.Merge(c)
	if a.DegradedRuns[CauseDeadline.String()] != 5 || a.DegradedRuns[CauseMaxExprs.String()] != 1 {
		t.Errorf("aggregate merge double counted: %v", a.DegradedRuns)
	}

	// Merge(nil) is a no-op.
	before := a.String()
	a.Merge(nil)
	if a.String() != before {
		t.Error("Merge(nil) changed the stats")
	}
}

// TestStatsCacheCounters: the plan-cache counters survive Merge (so
// experiment tables see them) and render in
// String only when a cache was actually in play — cacheless runs stay
// byte-identical to previous releases.
func TestStatsCacheCounters(t *testing.T) {
	plain := NewStats()
	if strings.Contains(plain.String(), "cache:") {
		t.Error("cacheless stats render a cache line")
	}

	a := NewStats()
	a.CacheHits, a.CacheMisses = 3, 1
	b := NewStats()
	b.CacheHits, b.CacheMisses = 1, 2
	b.FlightWaits, b.FlightShared = 4, 3
	a.Merge(b)
	if a.CacheHits != 4 || a.CacheMisses != 3 {
		t.Errorf("cache counters not summed: hits=%d misses=%d",
			a.CacheHits, a.CacheMisses)
	}
	if a.FlightWaits != 4 || a.FlightShared != 3 {
		t.Errorf("flight counters not summed: waits=%d shared=%d",
			a.FlightWaits, a.FlightShared)
	}
	s := a.String()
	if !strings.Contains(s, "cache: hits=4 misses=3 waits=4 shared=3") {
		t.Errorf("String drops cache counters:\n%s", s)
	}
}
