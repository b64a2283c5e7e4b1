package volcano

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"prairie/internal/core"
)

// TestWorklistClosesChains runs the explorer on chain queries that
// exercise duplicate elimination and deep rules: each search must end at
// the transformation closure (CheckClosed) with a repaired memo
// (CheckRepaired), holding one group per leaf, per RET over it and per
// contiguous range of two or more relations.
func TestWorklistClosesChains(t *testing.T) {
	for _, cards := range [][]float64{
		{4, 2},
		{8, 4, 2},
		{16, 8, 4, 2},
		{32, 16, 8, 4, 2},
		{2, 32, 4, 16, 8},
	} {
		w := newTestWorld()
		o := NewOptimizer(w.rs)
		if _, err := o.Optimize(w.chain(cards...), nil); err != nil {
			t.Fatalf("cards %v: %v", cards, err)
		}
		if n := len(cards); o.Stats.Groups != 2*n+n*(n-1)/2 {
			t.Errorf("cards %v: %d groups, want %d", cards, o.Stats.Groups, 2*n+n*(n-1)/2)
		}
		if err := o.Memo.CheckRepaired(); err != nil {
			t.Errorf("cards %v: %v", cards, err)
		}
		if err := o.CheckClosed(); err != nil {
			t.Errorf("cards %v: not closed: %v", cards, err)
		}
	}
}

// TestWorklistSpaceErrorDetail: an exhausted search reports where it
// stopped in Stats — the memo it built, the passes it ran and the
// worklist peak — and the counters render in Stats.String.
func TestWorklistSpaceErrorDetail(t *testing.T) {
	o, _ := exhaustSpace(t)
	s := o.Stats
	if s.Groups == 0 || s.Exprs <= 3 || s.Passes < 1 || s.MaxQueue == 0 {
		t.Errorf("exhaustion detail missing: groups=%d exprs=%d passes=%d queue=%d", s.Groups, s.Exprs, s.Passes, s.MaxQueue)
	}
	want := fmt.Sprintf("groups=%d exprs=%d merges=%d passes=%d queue=%d", s.Groups, s.Exprs, s.Merges, s.Passes, s.MaxQueue)
	if !strings.Contains(s.String(), want) || !strings.Contains(s.String(), "DEGRADED(max-exprs") {
		t.Errorf("Stats.String() = %q, want %q and the degradation", s, want)
	}
}

// onGoroutines runs job(0..n-1) on workers goroutines, each taking every
// workers-th index, and returns when all are done.
func onGoroutines(n, workers int, job func(i int)) {
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += workers {
				job(i)
			}
		}()
	}
	wg.Wait()
}

// TestOptimizeBatch runs many independent optimizations over a shared
// rule set on four goroutines; run under -race this exercises the
// engine's concurrency claim (the lazily-built rule index is the only
// shared state), and every concurrent answer must equal a sequential one.
func TestOptimizeBatch(t *testing.T) {
	w := newTestWorld()
	cards := [][]float64{
		{4, 2}, {8, 4, 2}, {16, 8, 4, 2}, {2, 4}, {32, 16, 8},
		{8, 2}, {4, 8, 2}, {2, 8, 4, 16}, {16, 2}, {8, 16, 4},
	}
	trees := make([]*core.Expr, len(cards))
	for i, c := range cards {
		trees[i] = w.chain(c...)
	}
	opts := make([]*Optimizer, len(trees))
	plans := make([]*core.Expr, len(trees))
	onGoroutines(len(trees), 4, func(i int) {
		opts[i] = NewOptimizer(w.rs)
		var err error
		if plans[i], err = opts[i].Optimize(trees[i].Clone(), nil); err != nil {
			t.Errorf("item %d: %v", i, err)
		}
	})
	if t.Failed() {
		return
	}
	for i := range trees {
		seq := NewOptimizer(w.rs)
		plan, err := seq.Optimize(trees[i].Clone(), nil)
		if err != nil {
			t.Fatal(err)
		}
		costID := w.rs.Class.Cost
		if got, want := plans[i].D.Float(costID), plan.D.Float(costID); math.Abs(got-want) > 1e-9 {
			t.Errorf("item %d: concurrent cost %g, sequential %g", i, got, want)
		}
		if opts[i].Stats.Groups != seq.Stats.Groups {
			t.Errorf("item %d: concurrent groups %d, sequential %d", i, opts[i].Stats.Groups, seq.Stats.Groups)
		}
	}
}

// TestOptimizeBatchSharedRuleSetIndex hammers the lazily-built operator
// index from many goroutines on a fresh RuleSet (the sync.Once path).
func TestOptimizeBatchSharedRuleSetIndex(t *testing.T) {
	w := newTestWorld()
	tree := w.chain(8, 4, 2) // built once; goroutines clone it
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := NewOptimizer(w.rs)
			if _, err := o.Optimize(tree.Clone(), nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
