package prairie_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// exploreResult captures everything the equivalence harness compares:
// the memo closure (groups, expressions), the winning plan's cost, and
// what the exploration took to get there: rule firings, group merges, and
// expressions interned (the closure plus those that died in a merge).
type exploreResult struct {
	groups, exprs           int
	cost                    float64
	fired, merges, interned int
}

func optimizeWith(t *testing.T, vrs *volcano.RuleSet, tree *core.Expr, req *core.Descriptor, kind volcano.ExplorerKind) exploreResult {
	t.Helper()
	opt := volcano.NewOptimizer(vrs)
	opt.Opts.Explorer = kind
	plan, err := opt.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatalf("explorer %d: %v", kind, err)
	}
	res := exploreResult{
		groups:   opt.Stats.Groups,
		exprs:    opt.Stats.Exprs,
		cost:     plan.D.Float(vrs.Class.Cost),
		merges:   opt.Stats.Merges,
		interned: opt.Memo.Interned(),
	}
	for _, n := range opt.Stats.TransFired {
		res.fired += n
	}
	return res
}

// TestExplorerEquivalence is the ISSUE's equivalence harness: over the
// seeded qgen workloads (families E1–E4, with and without indices, both
// the P2V-generated and the hand-coded Volcano rule sets), the worklist
// explorer must produce exactly the same equivalence-class counts,
// expression counts, and winner costs as the pass-based explorer —
// Figure 14 fidelity is a reproduction target, not just a perf number.
func TestExplorerEquivalence(t *testing.T) {
	families := []struct {
		e qgen.ExprKind
		n int
	}{
		{qgen.E1, 4},
		{qgen.E2, 4},
		{qgen.E3, 3},
		{qgen.E4, 3},
	}
	for _, fam := range families {
		for _, indexed := range []bool{false, true} {
			for _, seed := range qgen.InstanceSeeds()[:2] {
				name := fmt.Sprintf("%v/n%d/indexed=%v/seed%d", fam.e, fam.n, indexed, seed)
				t.Run(name, func(t *testing.T) {
					// Prairie-generated path.
					cat := qgen.Catalog(fam.n, seed, indexed)
					po := oodb.New(cat)
					prs, err := po.PrairieRules()
					if err != nil {
						t.Fatal(err)
					}
					pvrs, rep, err := p2v.Translate(prs)
					if err != nil {
						t.Fatal(err)
					}
					ptree, err := qgen.Build(po, fam.e, fam.n)
					if err != nil {
						t.Fatal(err)
					}
					ptree, preq, err := rep.PrepareQuery(ptree, nil)
					if err != nil {
						t.Fatal(err)
					}
					checkEquivalence(t, "prairie", pvrs, ptree, preq)

					// Hand-coded Volcano path.
					vo := oodb.New(qgen.Catalog(fam.n, seed, indexed))
					vtree, err := qgen.Build(vo, fam.e, fam.n)
					if err != nil {
						t.Fatal(err)
					}
					checkEquivalence(t, "volcano", vo.VolcanoRules(), vtree, core.NewDescriptor(vo.Alg.Props))
				})
			}
		}
	}
}

func checkEquivalence(t *testing.T, path string, vrs *volcano.RuleSet, tree *core.Expr, req *core.Descriptor) {
	t.Helper()
	pass := optimizeWith(t, vrs, tree, req, volcano.ExplorerPasses)
	work := optimizeWith(t, vrs, tree, req, volcano.ExplorerWorklist)
	if pass.groups != work.groups {
		t.Errorf("%s: groups differ: passes %d, worklist %d", path, pass.groups, work.groups)
	}
	if pass.exprs != work.exprs {
		t.Errorf("%s: exprs differ: passes %d, worklist %d", path, pass.exprs, work.exprs)
	}
	if math.Abs(pass.cost-work.cost) > 1e-9*math.Max(1, math.Abs(pass.cost)) {
		t.Errorf("%s: winner cost differs: passes %g, worklist %g", path, pass.cost, work.cost)
	}
}

// e4n4Exprs is the size of the E4/n4 transformation closure (452 groups),
// the largest search the tests complete; goldenClosures asserts it and
// the degraded-search test below derives its cap from it.
const e4n4Exprs = 4328

var oodbWorlds = []string{"oodb/prairie", "oodb/volcano"}

// goldenClosures records, per query of the server's default worlds
// (catalog seed 101), the closure size and winner cost measured before the
// memo's whole-index rebuild was replaced by parent-local repair. The
// OODB rows hold for both specifications of the optimizer. fired and
// merges are what the worklist explorer takes to get there, held as
// ceilings. fired is what a merge waking parents with more than the merge
// made new to them would raise first (E2/n5: 5 479 when every parent of a
// survivor re-enumerated in full). merges is what visiting a parent
// before its input is closed would raise (E2/n5: 568 breadth-first): the
// ones left are E3's and E4's selections pushed onto a join, whose new
// group proves equal to an old one at its own first visit.
var goldenClosures = []struct {
	worlds        []string
	family, graph string
	n             int
	groups, exprs int
	cost          float64
	fired, merges int
}{
	{oodbWorlds, "E1", "", 4, 14, 28, 14464, 30, 0},
	{oodbWorlds, "E1", "", 5, 20, 50, 14848, 70, 0},
	{oodbWorlds, "E1", "", 6, 27, 82, 15616, 140, 0},
	{oodbWorlds, "E2", "", 3, 25, 77, 18944, 208, 0},
	{oodbWorlds, "E2", "", 4, 56, 264, 15488, 1014, 0},
	{oodbWorlds, "E2", "", 5, 119, 787, 16256, 3900, 0},
	{oodbWorlds, "E3", "", 3, 25, 89, 6416.015625, 192, 1},
	{oodbWorlds, "E3", "", 4, 56, 318, 6548.015655517578, 1070, 4},
	{oodbWorlds, "E4", "", 2, 26, 82, 4364.0625, 202, 0},
	{oodbWorlds, "E4", "", 3, 111, 661, 6416.015808105469, 2897, 1},
	{oodbWorlds, "E4", "", 4, 452, e4n4Exprs, 6548.015656471252, 28008, 4},
	{oodbWorlds, "E1", "star", 4, 15, 32, 14720, 36, 0},
	{oodbWorlds, "E1", "star", 5, 25, 74, 15360, 112, 0},
	{oodbWorlds, "E1", "star", 6, 43, 172, 17152, 320, 0},
	{oodbWorlds, "E2", "star", 3, 25, 77, 20992, 208, 0},
	{oodbWorlds, "E2", "star", 4, 64, 308, 22016, 1170, 0},
	{oodbWorlds, "E2", "star", 5, 175, 1175, 23040, 5616, 0},
	{oodbWorlds, "E3", "star", 3, 25, 89, 6416.015625, 192, 0},
	{oodbWorlds, "E3", "star", 4, 64, 369, 6548.015686035156, 1229, 1},
	{oodbWorlds, "E4", "star", 2, 26, 82, 4364.0625, 202, 0},
	{oodbWorlds, "E4", "star", 3, 111, 661, 6416.0159912109375, 2897, 0},
	{[]string{"relational"}, "E1", "", 4, 14, 28, 88453.76183518214, 30, 0},
	{[]string{"relational"}, "E1", "", 5, 20, 50, 89927.19892387632, 70, 0},
	{[]string{"relational"}, "E1", "", 6, 27, 82, 92616.63880846996, 140, 0},
}

// TestGoldenClosures holds the search space fixed across changes to the
// memo: group counts (Figure 14), expression counts and winner costs
// must equal the recorded ones under both explorers. The worklist
// explorer must also build little besides the closure: firings and merges
// within their ceilings, and at most 2% of what it interns dying later.
func TestGoldenClosures(t *testing.T) {
	reg, err := server.DefaultRegistry(6, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenClosures {
		q := server.QuerySpec{Family: g.family, N: g.n, Graph: g.graph}
		for _, world := range g.worlds {
			w, ok := reg.Lookup(world)
			if !ok {
				t.Fatalf("no world %s", world)
			}
			for _, kind := range []volcano.ExplorerKind{volcano.ExplorerWorklist, volcano.ExplorerPasses} {
				if testing.Short() && g.exprs == e4n4Exprs && kind == volcano.ExplorerPasses {
					continue // seconds per run
				}
				tree, want, err := w.Build(q)
				if err != nil {
					t.Fatal(err)
				}
				got := optimizeWith(t, w.RS, tree, want, kind)
				if got.groups != g.groups || got.exprs != g.exprs || math.Abs(got.cost-g.cost) > 1e-9*g.cost {
					t.Errorf("%s %s explorer %d: %d groups / %d exprs / cost %v, recorded %d / %d / %v",
						world, q, kind, got.groups, got.exprs, got.cost, g.groups, g.exprs, g.cost)
				}
				if kind != volcano.ExplorerWorklist {
					continue
				}
				if got.fired > g.fired || got.merges > g.merges {
					t.Errorf("%s %s: the worklist explorer fired %d rules and merged %d times, recorded ceilings %d and %d",
						world, q, got.fired, got.merges, g.fired, g.merges)
				}
				if got.interned*100 > got.exprs*102 {
					t.Errorf("%s %s: the worklist explorer interned %d expressions to keep %d, more than 2%% over", world, q, got.interned, got.exprs)
				}
			}
		}
	}
}

// TestExplorerEquivalenceOnExhaustion checks both explorers agree that a
// capped search space is exhausted (the series-ending condition of the
// figure sweeps).
func TestExplorerEquivalenceOnExhaustion(t *testing.T) {
	vo := oodb.New(qgen.Catalog(4, qgen.InstanceSeeds()[0], false))
	tree, err := qgen.Build(vo, qgen.E4, 4)
	if err != nil {
		t.Fatal(err)
	}
	req := core.NewDescriptor(vo.Alg.Props)
	for _, kind := range []volcano.ExplorerKind{volcano.ExplorerPasses, volcano.ExplorerWorklist} {
		opt := volcano.NewOptimizer(vo.VolcanoRules())
		opt.Opts.Explorer = kind
		opt.Opts.MaxExprs = 200
		_, err := opt.Optimize(tree.Clone(), req)
		if !errors.Is(err, volcano.ErrSpaceExhausted) {
			t.Errorf("explorer %d: err = %v, want ErrSpaceExhausted", kind, err)
		}
	}
}

// TestDegradedE4ReturnsExecutablePlan: an E4 chain query at N=4, capped
// well below its closure, must under a soft budget return a valid plan
// marked Degraded where the same number as a hard cap gives
// ErrSpaceExhausted, and that plan must actually execute — to the rows the
// naive interpreter reads off the query. How good the plan is, is held too:
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

	// Sanity: the same query with the budget as a hard cap fails.
	hard := volcano.NewOptimizer(vo.VolcanoRules())
	hard.Opts.MaxExprs = budget
	if _, err := hard.Optimize(tree.Clone(), req); !errors.Is(err, volcano.ErrSpaceExhausted) {
		t.Fatalf("hard cap: err = %v, want ErrSpaceExhausted", err)
	}

	opt := volcano.NewOptimizer(vo.VolcanoRules())
	opt.Opts.Budget = volcano.Budget{MaxExprs: budget}
	plan, err := opt.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatalf("budgeted E4 n=4 failed instead of degrading: %v", err)
	}
	if !opt.Stats.Degraded || opt.Stats.DegradeCause != volcano.CauseMaxExprs {
		t.Errorf("not marked degraded: %+v", opt.Stats)
	}
	pe := plan.ToExpr()
	if !pe.IsPlan() {
		t.Fatalf("degraded result is not an access plan: %s", plan)
	}
	if got, want := len(pe.Leaves()), len(tree.Leaves()); got != want {
		t.Fatalf("degraded plan covers %d stored files, want %d", got, want)
	}
	// Executable, not just well-formed: compile and run it on synthetic
	// data (the optshell -execute path).
	db := data.Populate(cat, seed, 32)
	comp := exec.NewCompiler(db, exec.Props{
		Ord: vo.Ord, JP: vo.JP, SP: vo.SP, PA: vo.PA, MA: vo.MA, UA: vo.UA,
	})
	it, err := comp.Compile(pe)
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
	deg.Opts.Budget = volcano.Budget{MaxRuleFirings: 1}
	plan, err := deg.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Stats.Degraded {
		t.Fatal("run did not degrade under a 1-firing budget")
	}
	if !plan.ToExpr().IsPlan() || len(plan.ToExpr().Leaves()) != len(tree.Leaves()) {
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
	prs, err := po.PrairieRules()
	if err != nil {
		t.Fatal(err)
	}
	pvrs, rep, err := p2v.Translate(prs)
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
