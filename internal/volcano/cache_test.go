package volcano

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prairie/internal/core"
)

// optCached runs one optimization on a fresh optimizer with the given
// cache (nil for a cold run) and returns the plan and stats.
func optCached(t *testing.T, w *testWorld, tree *core.Expr, pc *PlanCache) (*core.Expr, *Stats) {
	t.Helper()
	o := NewOptimizer(w.rs)
	o.Opts.Cache = pc
	plan, err := o.Optimize(tree.Clone(), nil)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return plan, o.Stats
}

func TestFingerprintDeterministic(t *testing.T) {
	w := newTestWorld()
	q1 := w.chain(8, 4, 2)
	q2 := w.chain(8, 4, 2)
	h1, c1 := w.rs.fingerprintNode(q1)
	h2, c2 := w.rs.fingerprintNode(q2)
	if h1 != h2 || c1 != c2 {
		t.Fatalf("identical trees fingerprint differently:\n%016x %s\n%016x %s", h1, c1, h2, c2)
	}
	if !strings.Contains(c1, "JOIN") || !strings.Contains(c1, "R1") {
		t.Fatalf("canon misses structure: %s", c1)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	w := newTestWorld()
	h1, c1 := w.rs.fingerprintNode(w.chain(8, 4, 2))
	h2, c2 := w.rs.fingerprintNode(w.chain(8, 4, 3)) // different cardinality
	if h1 == h2 && c1 == c2 {
		t.Fatal("queries with different catalog stats share a fingerprint")
	}
	h3, c3 := w.rs.fingerprintNode(w.chain(8, 4))
	if h1 == h3 && c1 == c3 {
		t.Fatal("queries of different size share a fingerprint")
	}
}

// TestFingerprintCommutative: JOIN has an unconditional commute rule in
// the test world, so A JOIN B and B JOIN A (same predicate, same
// logical properties) must collide.
func TestFingerprintCommutative(t *testing.T) {
	w := newTestWorld()
	a := w.retOf(w.leaf("A", 8, core.A("A", "x")))
	b := w.retOf(w.leaf("B", 4, core.A("B", "x")))
	pred := core.EqAttr(core.A("A", "x"), core.A("B", "x"))
	ab := w.joinOf(a, b, pred)
	ba := w.joinOf(b, a, pred)
	hab, cab := w.rs.fingerprintNode(ab)
	hba, cba := w.rs.fingerprintNode(ba)
	if hab != hba {
		t.Errorf("commuted join hashes differ: %016x vs %016x", hab, hba)
	}
	if cab != cba {
		t.Errorf("commuted join canons differ:\n%s\n%s", cab, cba)
	}
}

func TestCommutedOpDetection(t *testing.T) {
	w := newTestWorld()
	if !w.rs.Commutative(w.join) {
		t.Error("join_commute not detected as unconditional commute")
	}
	if w.rs.Commutative(w.ret) {
		t.Error("RET misdetected as commutative")
	}
	// A conditional commute must NOT enable input sorting: the condition
	// may hold for some descriptors only.
	guarded := &TransRule{
		Name: "guarded_commute",
		LHS:  core.POp(w.join, "D3", core.PVar(1, "D1"), core.PVar(2, "D2")),
		RHS:  core.POp(w.join, "D4", core.PVar(2, ""), core.PVar(1, "")),
		Cond: func(b *core.Binding) bool { return false },
	}
	if commutedOp(guarded) != nil {
		t.Error("conditional rule detected as commute")
	}
	identity := &TransRule{
		Name: "not_a_commute",
		LHS:  core.POp(w.join, "D3", core.PVar(1, "D1"), core.PVar(2, "D2")),
		RHS:  core.POp(w.join, "D4", core.PVar(1, ""), core.PVar(2, "")),
	}
	if commutedOp(identity) != nil {
		t.Error("identity rewrite detected as commute")
	}
}

// TestPlanCacheHit: the second optimization of a structurally equal
// query is served from the cache — byte-identical plan, no search, and
// the cold run's memo-shape stats copied in.
func TestPlanCacheHit(t *testing.T) {
	w := newTestWorld()
	q := w.chain(8, 4, 2, 6)
	cold, coldStats := optCached(t, w, q, nil)

	pc := NewPlanCache(64)
	p1, s1 := optCached(t, w, q, pc)
	if s1.CacheMisses != 1 || s1.CacheHits != 0 {
		t.Fatalf("first run: hits=%d misses=%d, want 0/1", s1.CacheHits, s1.CacheMisses)
	}
	p2, s2 := optCached(t, w, q, pc)
	if s2.CacheHits != 1 || s2.CacheMisses != 0 {
		t.Fatalf("second run: hits=%d misses=%d, want 1/0", s2.CacheHits, s2.CacheMisses)
	}
	if p1.Format() != cold.Format() {
		t.Errorf("miss-path plan differs from cold plan:\n%s\nvs\n%s", p1.Format(), cold.Format())
	}
	if p2.Format() != cold.Format() {
		t.Errorf("hit-path plan differs from cold plan:\n%s\nvs\n%s", p2.Format(), cold.Format())
	}
	if s2.Groups != coldStats.Groups || s2.Exprs != coldStats.Exprs {
		t.Errorf("hit stats lost memo shape: groups=%d exprs=%d, want %d/%d",
			s2.Groups, s2.Exprs, coldStats.Groups, coldStats.Exprs)
	}
	if st := pc.Snapshot(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("cache counters: %+v", st)
	}
	// A searching run owns the plan it returns (the entry is a clone of
	// it); plans returned by hits are the entry's own and read-only, so
	// a caller that wants to write clones first.
	p1.D.SetFloat(w.nr, -1)
	p2.Clone().D.SetFloat(w.nr, -1)
	p3, _ := optCached(t, w, q, pc)
	if p3 != p2 {
		t.Error("hits deep-copy the entry's plan again")
	}
	if p3.Format() != cold.Format() {
		t.Error("cached plan corrupted by caller mutation")
	}
}

// TestPlanCacheCommutativeHit: optimizing B JOIN A after A JOIN B is a
// full hit, and the served plan equals B JOIN A's own cold plan.
func TestPlanCacheCommutativeHit(t *testing.T) {
	w := newTestWorld()
	a := w.retOf(w.leaf("A", 8, core.A("A", "x")))
	b := w.retOf(w.leaf("B", 4, core.A("B", "x")))
	pred := core.EqAttr(core.A("A", "x"), core.A("B", "x"))
	ab := w.joinOf(a, b, pred)
	ba := w.joinOf(b, a, pred)

	coldBA, _ := optCached(t, w, ba, nil)
	pc := NewPlanCache(64)
	optCached(t, w, ab, pc)
	pBA, s := optCached(t, w, ba, pc)
	if s.CacheHits != 1 {
		t.Fatalf("commuted query missed: %+v", pc.Snapshot())
	}
	// The served plan carries the first query's descriptors, whose
	// attribute lists are set-equal but may render in a different
	// order; compare structure, cost, and descriptor equality rather
	// than bytes (byte identity is asserted for same-tree hits in
	// TestPlanCacheHit).
	if pBA.String() != coldBA.String() {
		t.Errorf("commuted hit plan structure differs: %s vs %s", pBA, coldBA)
	}
	if got, want := pBA.Cost(w.rs.Class), coldBA.Cost(w.rs.Class); got != want {
		t.Errorf("commuted hit plan cost %v, want %v", got, want)
	}
	var check func(a, b *core.Expr)
	check = func(a, b *core.Expr) {
		if !a.D.EqualOn(b.D, []core.PropID{w.ord, w.jp, w.at, w.nr, w.c}) {
			t.Errorf("descriptors differ: %s vs %s", a.D, b.D)
		}
		for i := range a.Kids {
			check(a.Kids[i], b.Kids[i])
		}
	}
	check(pBA, coldBA)
}

// TestPlanCacheNeutral: a capacity <= 0 builds no cache (nil), and a
// search with it reads as one with no cache attached: the same plan,
// and no cache line in the rendered stats.
func TestPlanCacheNeutral(t *testing.T) {
	for _, n := range []int{0, -1} {
		if pc := NewPlanCache(n); pc != nil {
			t.Fatalf("NewPlanCache(%d) = %v, want nil", n, pc)
		}
	}
	w := newTestWorld()
	q := w.chain(8, 4, 2, 6)
	pNil, sNil := optCached(t, w, q, nil)
	pOff, sOff := optCached(t, w, q, NewPlanCache(0))
	if pNil.Format() != pOff.Format() {
		t.Error("disabled cache changed the plan")
	}
	if sNil.String() != sOff.String() {
		t.Errorf("disabled cache changed rendered stats:\n%s\nvs\n%s", sNil, sOff)
	}
	if strings.Contains(sOff.String(), "cache:") {
		t.Error("cacheless stats render a cache line")
	}
}

// TestPlanCacheDegradedNotCached: a degraded search must not publish
// its plan — the next identical query misses and searches again.
func TestPlanCacheDegradedNotCached(t *testing.T) {
	w := newTestWorld()
	q := w.chain(8, 4, 2, 6, 3, 5)
	pc := NewPlanCache(64)
	run := func() *Stats {
		o := NewOptimizer(w.rs)
		o.Opts.Cache = pc
		o.Opts.Budget = Budget{MaxExprs: 10}
		if _, err := o.Optimize(q.Clone(), nil); err != nil {
			t.Fatalf("degraded optimize: %v", err)
		}
		return o.Stats
	}
	s1 := run()
	if !s1.Degraded {
		t.Skip("budget did not trip; cannot exercise the degraded path")
	}
	if pc.Len() != 0 {
		t.Fatalf("degraded result was cached (%d entries)", pc.Len())
	}
	s2 := run()
	if s2.CacheHits != 0 || s2.CacheMisses != 1 {
		t.Errorf("second degraded run: hits=%d misses=%d, want 0/1", s2.CacheHits, s2.CacheMisses)
	}
}

// TestPlanCacheEpochInvalidation: Invalidate cuts off all prior
// entries.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	w := newTestWorld()
	q := w.chain(8, 4, 2)
	pc := NewPlanCache(64)
	optCached(t, w, q, pc)
	if _, s := optCached(t, w, q, pc); s.CacheHits != 1 {
		t.Fatal("no hit before invalidation")
	}
	pc.Invalidate()
	if n := pc.Len(); n != 0 {
		t.Fatalf("%d plans cached after Invalidate, want 0", n)
	}
	if _, s := optCached(t, w, q, pc); s.CacheHits != 0 || s.CacheMisses != 1 {
		t.Fatal("stale entry served after Invalidate")
	}
	if _, s := optCached(t, w, q, pc); s.CacheHits != 1 {
		t.Fatal("no hit after re-population in the new epoch")
	}
}

// TestPlanCacheScopeSeparation: two rule-set instances never share
// entries, even when structurally identical — their rule hooks may
// close over different catalogs.
func TestPlanCacheScopeSeparation(t *testing.T) {
	w1 := newTestWorld()
	w2 := newTestWorld()
	pc := NewPlanCache(64)
	optCached(t, w1, w1.chain(8, 4, 2), pc)
	_, s := optCached(t, w2, w2.chain(8, 4, 2), pc)
	if s.CacheHits != 0 {
		t.Fatal("cache entry leaked across rule-set instances")
	}
}

// TestBudgetClassSeparation: the same query under a different budget
// class is a different cache entry.
func TestBudgetClassSeparation(t *testing.T) {
	w := newTestWorld()
	q := w.chain(8, 4, 2)
	pc := NewPlanCache(64)
	optCached(t, w, q, pc)
	o := NewOptimizer(w.rs)
	o.Opts.Cache = pc
	o.Opts.Budget = Budget{MaxExprs: 100000}
	if _, err := o.Optimize(q.Clone(), nil); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if o.Stats.CacheHits != 0 || o.Stats.CacheMisses != 1 {
		t.Errorf("budgeted run reused unbudgeted entry: hits=%d misses=%d",
			o.Stats.CacheHits, o.Stats.CacheMisses)
	}
}

// TestRenderingOncePerEntry: every run an entry answers is handed the
// entry's one rendering slot, the slot is filled once however many runs
// race for it, and a re-inserted entry (here: after an invalidation)
// starts with an empty slot of its own.
func TestRenderingOncePerEntry(t *testing.T) {
	w := newTestWorld()
	q := w.chain(8, 4, 2, 6)
	pc := NewPlanCache(64)
	lead := NewOptimizer(w.rs)
	lead.Opts.Cache = pc
	if _, err := lead.Optimize(q.Clone(), nil); err != nil {
		t.Fatal(err)
	}
	if lead.Rendering == nil {
		t.Fatal("the leader was not handed the slot of the entry it published")
	}
	var fills atomic.Int64
	render := func(o *Optimizer, plan *core.Expr) string {
		return o.Rendering.Do(func() any { fills.Add(1); return plan.String() }).(string)
	}
	const n = 32
	got := make([]string, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := NewOptimizer(w.rs)
			o.Opts.Cache = pc
			start.Wait()
			plan, err := o.Optimize(q.Clone(), nil)
			if err != nil || o.Stats.CacheHits != 1 {
				t.Errorf("run %d: err=%v hits=%d", i, err, o.Stats.CacheHits)
				return
			}
			if o.Rendering != lead.Rendering {
				t.Errorf("run %d was handed another slot than the entry's", i)
			}
			got[i] = render(o, plan)
		}()
	}
	start.Done()
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("the entry was rendered %d times", fills.Load())
	}
	for i := range got {
		if got[i] != got[0] || got[0] == "" {
			t.Fatalf("run %d read %q, run 0 %q", i, got[i], got[0])
		}
	}
	pc.Invalidate()
	again := NewOptimizer(w.rs)
	again.Opts.Cache = pc
	plan, err := again.Optimize(q.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rendering == nil || again.Rendering == lead.Rendering {
		t.Fatal("the re-inserted entry shares the old entry's slot")
	}
	if render(again, plan); fills.Load() != 2 {
		t.Fatalf("the new entry's slot was not filled afresh (%d fills)", fills.Load())
	}
	var none *Rendering
	if none.Do(func() any { return 7 }) != 7 {
		t.Fatal("a nil slot must call fill")
	}
	uncached := NewOptimizer(w.rs)
	if _, err := uncached.Optimize(q.Clone(), nil); err != nil || uncached.Rendering != nil {
		t.Fatalf("a cacheless run has a slot: %v, %v", uncached.Rendering, err)
	}
}
