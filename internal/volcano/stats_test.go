package volcano

import (
	"strings"
	"testing"
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

// TestStatsCacheCounters: the plan-cache counters render in String only
// when a cache was actually in play — cacheless runs stay byte-identical
// to previous releases.
func TestStatsCacheCounters(t *testing.T) {
	plain := NewStats()
	if strings.Contains(plain.String(), "cache:") {
		t.Error("cacheless stats render a cache line")
	}

	a := NewStats()
	a.CacheHits, a.CacheMisses = 4, 3
	a.FlightWaits, a.FlightShared = 4, 3
	s := a.String()
	if !strings.Contains(s, "cache: hits=4 misses=3 waits=4 shared=3") {
		t.Errorf("String drops cache counters:\n%s", s)
	}
}
