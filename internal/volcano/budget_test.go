package volcano

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"prairie/internal/core"
)

// degradedPlan runs a budgeted optimization that must degrade and
// checks the invariants every degraded result shares: no error, a
// structurally valid plan over all relations, and a marked Stats.
func degradedPlan(t *testing.T, w *testWorld, o *Optimizer, ctx context.Context, wantCause Cause) *core.Expr {
	t.Helper()
	tree := w.chain(16, 8, 4, 2)
	plan, err := o.OptimizeContext(ctx, tree, nil)
	if err != nil {
		t.Fatalf("budgeted optimize failed instead of degrading: %v", err)
	}
	if plan == nil {
		t.Fatal("nil plan without error")
	}
	if !plan.IsPlan() {
		t.Errorf("degraded result is not an access plan: %s", plan)
	}
	if got := len(plan.Leaves()); got != 4 {
		t.Errorf("degraded plan covers %d relations, want 4", got)
	}
	if !o.Stats.Degraded {
		t.Error("Stats.Degraded not set")
	}
	if o.Stats.DegradeCause != wantCause {
		t.Errorf("DegradeCause = %s, want %s", o.Stats.DegradeCause, wantCause)
	}
	if o.Stats.DegradePath == "" {
		t.Error("DegradePath not set")
	}
	if o.Stats.Groups == 0 || o.Stats.Exprs == 0 {
		t.Errorf("partial stats not recorded: groups=%d exprs=%d", o.Stats.Groups, o.Stats.Exprs)
	}
	return plan
}

func TestBudgetMaxExprsDegrades(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	o.Opts.Budget = Budget{MaxExprs: 5}
	degradedPlan(t, w, o, context.Background(), CauseMaxExprs)
}

// TestGuardDegradesUnbudgeted: the expression guard of a zero Budget
// degrades like any budget — an executable plan, marked, with no clock
// read and no checkpoint ticked — and, degraded, it is never cached.
func TestGuardDegradesUnbudgeted(t *testing.T) {
	defer SetMaxExprsGuard(12)()
	w := newTestWorld()
	pc := NewPlanCache(64)
	for run := 0; run < 2; run++ {
		o := NewOptimizer(w.rs)
		o.Opts.Cache = pc
		if !o.Opts.Budget.IsZero() {
			t.Fatal("the run must be unbudgeted")
		}
		degradedPlan(t, w, o, context.Background(), CauseMaxExprs)
		if o.Stats.BudgetChecks != 0 {
			t.Errorf("unbudgeted run ticked %d checkpoints", o.Stats.BudgetChecks)
		}
		if pc.Len() != 0 || o.Stats.CacheHits != 0 || o.Stats.CacheMisses != 1 {
			t.Errorf("run %d: degraded plan cached: entries=%d hits=%d misses=%d",
				run, pc.Len(), o.Stats.CacheHits, o.Stats.CacheMisses)
		}
	}
}

// TestOneExpressionCap: a cap of N expressions stops a search at the
// same memo whether a Budget sets it or it is the guard a zero Budget
// means: the explorer compares the count with the cap in one place.
func TestOneExpressionCap(t *testing.T) {
	const maxExprs = 12
	w := newTestWorld()
	budgeted := NewOptimizer(w.rs)
	budgeted.Opts.Budget = Budget{MaxExprs: maxExprs}
	degradedPlan(t, w, budgeted, context.Background(), CauseMaxExprs)
	defer SetMaxExprsGuard(maxExprs)()
	guarded := NewOptimizer(w.rs)
	degradedPlan(t, w, guarded, context.Background(), CauseMaxExprs)
	if b, g := budgeted.Stats.Exprs, guarded.Stats.Exprs; b != g || b != maxExprs {
		t.Errorf("a cap of %d stopped a budgeted search at %d expressions and a guarded one at %d", maxExprs, b, g)
	}
}

func TestBudgetDeadlineDegrades(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	o.Opts.Budget = Budget{Timeout: time.Nanosecond}
	degradedPlan(t, w, o, context.Background(), CauseDeadline)
}

func TestContextDeadlineDegrades(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	degradedPlan(t, w, o, ctx, CauseDeadline)
}

func TestCancellationDegradesToBottomUp(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	degradedPlan(t, w, o, ctx, CauseCancelled)
	// A hard cancel skips memo salvage: the plan must come from the
	// seed, planned in the run's memo.
	if o.Stats.DegradePath != DegradePathGreedy {
		t.Errorf("DegradePath = %q, want %q", o.Stats.DegradePath, DegradePathGreedy)
	}
}

// TestDegradedCostNoBetterThanFull: degradation can only lose plan
// quality, never invent a cheaper-than-optimal winner.
func TestDegradedCostNoBetterThanFull(t *testing.T) {
	full := newTestWorld()
	fo := NewOptimizer(full.rs)
	best, err := fo.Optimize(full.chain(16, 8, 4, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	o.Opts.Budget = Budget{MaxExprs: 5}
	plan := degradedPlan(t, w, o, context.Background(), CauseMaxExprs)
	if got, want := plan.Cost(w.rs.Class), best.Cost(full.rs.Class); got < want {
		t.Errorf("degraded cost %g beats full-search winner %g", got, want)
	}
}

// TestUnbudgetedRunNotDegraded: with a background context and zero
// Budget the governed path must be indistinguishable from the old one.
func TestUnbudgetedRunNotDegraded(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	plain, err := o.OptimizeContext(context.Background(), w.chain(16, 8, 4, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats.Degraded || o.Stats.DegradeCause != CauseNone || o.Stats.DegradePath != "" {
		t.Errorf("unbudgeted run marked degraded: %+v", o.Stats)
	}
	ref := newTestWorld()
	ro := NewOptimizer(ref.rs)
	want, err := ro.Optimize(ref.chain(16, 8, 4, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats.Groups != ro.Stats.Groups || o.Stats.Exprs != ro.Stats.Exprs {
		t.Errorf("context path changed the search: groups %d/%d exprs %d/%d",
			o.Stats.Groups, ro.Stats.Groups, o.Stats.Exprs, ro.Stats.Exprs)
	}
	if plain.Cost(w.rs.Class) != want.Cost(ref.rs.Class) {
		t.Errorf("winner cost differs: %g vs %g", plain.Cost(w.rs.Class), want.Cost(ref.rs.Class))
	}
	if err := o.CheckClosed(); err != nil {
		t.Errorf("unbudgeted run stopped short of the closure: %v", err)
	}
}

// TestCheckClosedCatchesPartialMemo: a search a budget interrupted left
// rules unapplied, and the closure check must say so.
func TestCheckClosedCatchesPartialMemo(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	o.Opts.Budget = Budget{MaxExprs: 12}
	degradedPlan(t, w, o, context.Background(), CauseMaxExprs)
	if err := o.CheckClosed(); err == nil {
		t.Errorf("CheckClosed passed on a memo of %d expressions a 12-expression budget interrupted", o.Stats.Exprs)
	}
}

// TestStatsFlushedOnExhaustion: a search the expression guard stopped
// must still report the partial work — memo counters and per-rule maps
// (they feed degradation diagnostics).
func TestStatsFlushedOnExhaustion(t *testing.T) {
	o, _ := exhaustSpace(t)
	if o.Stats.Groups == 0 || o.Stats.Exprs == 0 {
		t.Errorf("memo stats not recorded on exhaustion: groups=%d exprs=%d", o.Stats.Groups, o.Stats.Exprs)
	}
	total := 0
	for _, n := range o.Stats.TransMatched {
		total += n
	}
	if total == 0 {
		t.Error("per-rule counters not flushed on the exhaustion path")
	}
}

// TestGreedyPlanStandalone: the fallback planner on its own produces a
// valid plan of the original shape without firing any transformation.
func TestGreedyPlanStandalone(t *testing.T) {
	w := newTestWorld()
	plan, err := GreedyPlan(w.rs, w.chain(8, 4, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsPlan() || len(plan.Leaves()) != 3 {
		t.Errorf("greedy plan invalid: %s", plan)
	}
	// Compare: the full search can only match or beat the greedy cost.
	full := newTestWorld()
	fo := NewOptimizer(full.rs)
	best, err := fo.Optimize(full.chain(8, 4, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost(w.rs.Class) < best.Cost(full.rs.Class) {
		t.Errorf("greedy %g beats full search %g", plan.Cost(w.rs.Class), best.Cost(full.rs.Class))
	}
}

// TestGreedyNoPlanTyped: when no implementation rule covers the
// original tree under the requirement, GreedyPlan fails as a search
// does: never a nil plan with a nil error, and errors.Is matches
// ErrNoPlan.
func TestGreedyNoPlanTyped(t *testing.T) {
	w := newTestWorld()
	// Remove the enforcer and merge join so no order can be produced.
	w.rs.Enforcers = nil
	var impls []*ImplRule
	for _, r := range w.rs.Impls {
		if r.Name != "join_merge_join" {
			impls = append(impls, r)
		}
	}
	w.rs.Impls = impls
	req := w.alg.NewDesc()
	req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
	tree := w.retOf(w.leaf("R1", 8, core.A("R1", "a")))

	plan, err := GreedyPlan(w.rs, tree.Clone(), req)
	if plan != nil {
		t.Fatal("GreedyPlan returned a plan for an unimplementable shape")
	}
	if !errors.Is(err, ErrNoPlan) {
		t.Errorf("err = %v does not unwrap to ErrNoPlan", err)
	}
}

// TestBudgetInfeasibleRequirement: when even the fallback cannot satisfy
// the requirement, the degraded search reports an error rather than a
// bogus plan.
func TestBudgetInfeasibleRequirement(t *testing.T) {
	w := newTestWorld()
	w.rs.Enforcers = nil
	var impls []*ImplRule
	for _, r := range w.rs.Impls {
		if r.Name != "join_merge_join" {
			impls = append(impls, r)
		}
	}
	w.rs.Impls = impls
	o := NewOptimizer(w.rs)
	o.Opts.Budget = Budget{MaxExprs: 1}
	req := w.alg.NewDesc()
	req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
	if _, err := o.Optimize(w.retOf(w.leaf("R1", 8, core.A("R1", "a"))), req); err == nil {
		t.Error("expected an error for an unsatisfiable degraded search")
	}
}

// TestDegradedPlanIsTheMemosWinner: a degraded search plans on its one
// memo, so the plan it returns is the root group's winner for the
// requirement, and ExplainGroup lists it — by either degrade path: a
// salvage of the explored memo, and the seed's plan after a cancel
// before exploring, during it, or during costing.
func TestDegradedPlanIsTheMemosWinner(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		budget     Budget
		cancelled  bool      // the context is cancelled before the search
		cancelAt   EventKind // or at the first event of this kind
	}{
		{name: "memo-best", path: DegradePathMemo, budget: Budget{MaxExprs: 12}},
		{name: "cancelled", path: DegradePathGreedy, cancelled: true},
		{name: "cancelled exploring", path: DegradePathGreedy, cancelAt: EventTransFired},
		{name: "cancelled costing", path: DegradePathGreedy, cancelAt: EventImplCosted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld()
			o := NewOptimizer(w.rs)
			o.Opts.Budget = tc.budget
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelled {
				cancel()
			} else if tc.budget.IsZero() {
				o.OnEvent = func(e Event) {
					if e.Kind == tc.cancelAt {
						cancel()
					}
				}
			}
			req := w.alg.NewDesc()
			req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
			plan, err := o.OptimizeContext(ctx, w.chain(16, 8, 4, 2, 8, 4, 16), req)
			if err != nil {
				t.Fatal(err)
			}
			if o.Stats.DegradePath != tc.path {
				t.Fatalf("DegradePath = %q, want %q", o.Stats.DegradePath, tc.path)
			}
			var roots []*Group
			for _, g := range o.Memo.Groups() {
				if len(o.Memo.parentsOf(g.ID)) == 0 {
					roots = append(roots, g)
				}
			}
			if len(roots) != 1 {
				t.Fatalf("%d groups take no parent, want the root alone", len(roots))
			}
			root := roots[0]
			var won *winnerEntry
			for e := root.winners; e != nil; e = e.next {
				if e.req.EqualOn(req, w.rs.Class.Phys) {
					won = e
				}
			}
			if won == nil || won.plan != plan {
				t.Fatalf("the root group's winner for %s is %v, the search returned %s",
					reqString(req, w.rs.Class.Phys), won, plan)
			}
			out, err := o.ExplainGroup(root.ID)
			if err != nil {
				t.Fatal(err)
			}
			if line := fmt.Sprintf("= %s (cost %.1f)", plan, won.cost); !strings.Contains(out, line) {
				t.Errorf("ExplainGroup(%d) does not list the returned plan %q:\n%s", root.ID, line, out)
			}
		})
	}
}
