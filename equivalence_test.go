package prairie_test

import (
	"sync"
	"testing"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

// e4n4Exprs is the size of the E4/n4 transformation closure (452 groups),
// the largest search the tests complete; internal/volcano's
// goldenClosures asserts it, and the degraded-search test below derives
// its cap from it.
const e4n4Exprs = 4328

// TestDegradedE4ReturnsExecutablePlan: an E4 chain query at N=4, capped
// well below its closure, must return a valid plan marked Degraded, and
// that plan must actually execute — to the rows the naive interpreter
// reads off the query. How good the plan is, is held too:
// an expression budget spent inputs-first buys no doomed duplicates, and
// half the closure salvages cost 6 800 (optimum 6 548) where the
// breadth-first order salvaged 12 880, the ceiling.
func TestDegradedE4ReturnsExecutablePlan(t *testing.T) {
	seed := qgen.InstanceSeeds()[0]
	cat := qgen.Catalog(4, seed, false)
	vo := oodb.New(cat)
	tree, err := qgen.Build(vo, qgen.E4, 4)
	if err != nil {
		t.Fatal(err)
	}
	req := core.NewDescriptor(vo.Alg.Props)

	// Half the closure (see goldenClosures): no search order can finish
	// under it, however promptly duplicates die.
	const budget = e4n4Exprs / 2

	opt := volcano.NewOptimizer(vo.VolcanoRules())
	opt.Opts.Budget = volcano.Budget{MaxExprs: budget}
	plan, err := opt.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatalf("budgeted E4 n=4 failed instead of degrading: %v", err)
	}
	if !opt.Stats.Degraded || opt.Stats.DegradeCause != volcano.CauseMaxExprs {
		t.Errorf("not marked degraded: %+v", opt.Stats)
	}
	if !plan.IsPlan() {
		t.Fatalf("degraded result is not an access plan: %s", plan)
	}
	if got, want := len(plan.Leaves()), len(tree.Leaves()); got != want {
		t.Fatalf("degraded plan covers %d stored files, want %d", got, want)
	}
	// Executable, not just well-formed: compile and run it on synthetic
	// data (the optshell -execute path).
	db := data.Populate(cat, seed, 32)
	comp := exec.NewCompiler(db, exec.Props{
		Ord: vo.Ord, JP: vo.JP, SP: vo.SP, PA: vo.PA, MA: vo.MA, UA: vo.UA,
	})
	it, err := comp.Compile(plan)
	if err != nil {
		t.Fatalf("degraded plan does not compile: %v", err)
	}
	got, err := exec.Run(it)
	if err != nil {
		t.Fatalf("degraded plan does not execute: %v", err)
	}
	want, err := (&exec.Naive{DB: db, P: comp.P}).Eval(tree)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if !exec.SameBag(got, want) {
		t.Errorf("degraded plan returns %d rows, naive %d: bags differ", len(got.Rows), len(want.Rows))
	}
	const breadthFirstCost = 12880
	if cost := plan.D.Float(vo.C); cost > breadthFirstCost {
		t.Errorf("degraded plan costs %v, more than the %d a breadth-first explorer salvaged from the same budget", cost, breadthFirstCost)
	} else {
		t.Logf("degraded plan cost %v from %d expressions (%d groups, %d merges, queue peak %d)",
			cost, opt.Stats.Exprs, opt.Stats.Groups, opt.Stats.Merges, opt.Stats.MaxQueue)
	}
}

// TestDegradedCostBoundedByFullSearch: on a workload small enough to
// optimize fully, a budget-degraded plan must still be structurally
// valid and can only cost more than (or equal to) the unbudgeted
// winner.
func TestDegradedCostBoundedByFullSearch(t *testing.T) {
	seed := qgen.InstanceSeeds()[0]
	vo := oodb.New(qgen.Catalog(4, seed, false))
	tree, err := qgen.Build(vo, qgen.E1, 4)
	if err != nil {
		t.Fatal(err)
	}
	req := core.NewDescriptor(vo.Alg.Props)
	vrs := vo.VolcanoRules()

	full := volcano.NewOptimizer(vrs)
	best, err := full.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatal(err)
	}
	deg := volcano.NewOptimizer(vrs)
	deg.Opts.Budget = volcano.Budget{MaxExprs: 20}
	plan, err := deg.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Stats.Degraded {
		t.Fatal("run did not degrade under a 20-expression budget")
	}
	if !plan.IsPlan() || len(plan.Leaves()) != len(tree.Leaves()) {
		t.Errorf("degraded plan structurally invalid: %s", plan)
	}
	costID := vrs.Class.Cost
	if got, want := plan.D.Float(costID), best.D.Float(costID); got < want {
		t.Errorf("degraded plan cost %g beats unbudgeted winner %g", got, want)
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

// TestOptimizeBatchOODB runs concurrent optimizers on the real OODB
// workloads (run with -race in CI): a grid of (family, copy) jobs
// sharing one rule set must reproduce the sequential group counts and
// plans. The hand-coded rule set runs on 4 goroutines; the compiled
// Prairie one on 8, four copies of every query at once — its closures are
// shared by all of them and must keep every firing's state (descriptor
// frame, shared sub-expression values, helper arguments, scratch
// descriptors) in the optimizer's own binding.
func TestOptimizeBatchOODB(t *testing.T) {
	cat := qgen.Catalog(3, qgen.InstanceSeeds()[0], false)
	vo := oodb.New(cat)
	po := oodb.New(cat)
	pvrs, rep, err := p2v.Translate(po.PrairieRules())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name            string
		o               *oodb.Opt
		rs              *volcano.RuleSet
		copies, workers int
	}{
		{"oodb/volcano", vo, vo.VolcanoRules(), 1, 4},
		{"oodb/prairie", po, pvrs, 4, 8},
	} {
		type item struct {
			tree   *core.Expr
			req    *core.Descriptor
			groups int
			plan   string
		}
		var items []item
		for _, e := range []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4} {
			tree, err := qgen.Build(c.o, e, 3)
			if err != nil {
				t.Fatal(err)
			}
			tree, req, err := rep.PrepareQuery(tree, nil)
			if err != nil {
				t.Fatal(err)
			}
			seq := volcano.NewOptimizer(c.rs)
			plan, err := seq.Optimize(tree.Clone(), req)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.copies; i++ {
				items = append(items, item{tree.Clone(), req, seq.Stats.Groups, plan.String()})
			}
		}
		onGoroutines(len(items), c.workers, func(i int) {
			it := items[i]
			opt := volcano.NewOptimizer(c.rs)
			plan, err := opt.Optimize(it.tree, it.req)
			if err != nil {
				t.Errorf("%s item %d: %v", c.name, i, err)
				return
			}
			if opt.Stats.Groups != it.groups || plan.String() != it.plan {
				t.Errorf("%s item %d: concurrent %d groups, plan %s; sequential %d groups, plan %s",
					c.name, i, opt.Stats.Groups, plan, it.groups, it.plan)
			}
		})
	}
}
