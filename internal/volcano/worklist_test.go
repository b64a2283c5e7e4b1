package volcano

import (
	"math"

	"prairie/internal/core"
	"strings"
	"sync"
	"testing"
)

// runWith optimizes w's chain query under one explorer kind and returns
// the optimizer (plan cost is read through findBest's memoized winner).
func runWith(t *testing.T, w *testWorld, kind ExplorerKind, cards ...float64) (*Optimizer, float64) {
	t.Helper()
	o := NewOptimizer(w.rs)
	o.Opts.Explorer = kind
	plan, err := o.Optimize(w.chain(cards...), nil)
	if err != nil {
		t.Fatalf("explorer %d: %v", kind, err)
	}
	return o, plan.D.Float(w.rs.Class.Cost)
}

// TestWorklistMatchesPassExplorer is the in-package equivalence check:
// both exploration strategies must reach the same memo closure (group
// and expression counts) and the same winning plan cost on workloads
// that exercise merging, duplicate elimination, and deep rules.
func TestWorklistMatchesPassExplorer(t *testing.T) {
	for _, cards := range [][]float64{
		{4, 2},
		{8, 4, 2},
		{16, 8, 4, 2},
		{32, 16, 8, 4, 2},
		{2, 32, 4, 16, 8},
	} {
		wp := newTestWorld()
		po, pCost := runWith(t, wp, ExplorerPasses, cards...)
		ww := newTestWorld()
		wo, wCost := runWith(t, ww, ExplorerWorklist, cards...)

		if po.Stats.Groups != wo.Stats.Groups {
			t.Errorf("cards %v: groups differ: passes %d, worklist %d", cards, po.Stats.Groups, wo.Stats.Groups)
		}
		if po.Stats.Exprs != wo.Stats.Exprs {
			t.Errorf("cards %v: exprs differ: passes %d, worklist %d", cards, po.Stats.Exprs, wo.Stats.Exprs)
		}
		if math.Abs(pCost-wCost) > 1e-9 {
			t.Errorf("cards %v: winner cost differs: passes %g, worklist %g", cards, pCost, wCost)
		}
	}
}

// TestWorklistDistinctRuleStats checks Table 5's inputs are preserved:
// the set of rules that matched/fired must agree between explorers (the
// raw counts may differ — the worklist skips re-enumerating old
// bindings).
func TestWorklistDistinctRuleStats(t *testing.T) {
	wp := newTestWorld()
	po, _ := runWith(t, wp, ExplorerPasses, 16, 8, 4, 2)
	ww := newTestWorld()
	wo, _ := runWith(t, ww, ExplorerWorklist, 16, 8, 4, 2)
	if a, b := po.Stats.DistinctTransMatched(), wo.Stats.DistinctTransMatched(); a != b {
		t.Errorf("distinct trans matched: passes %d, worklist %d", a, b)
	}
	for name, n := range po.Stats.TransFired {
		if n > 0 && wo.Stats.TransFired[name] == 0 {
			t.Errorf("rule %s fired under passes but not worklist", name)
		}
	}
}

// TestWorklistSpaceErrorDetail checks the enriched exhaustion error.
func TestWorklistSpaceErrorDetail(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	o.Opts.MaxExprs = 3
	_, err := o.Optimize(w.chain(8, 4, 2), nil)
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	for _, want := range []string{"groups=", "exprs=", "passes=", "queue="} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
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
	plans := make([]*PExpr, len(trees))
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
