package volcano_test

import (
	"fmt"
	"math"
	"testing"

	"prairie/internal/core"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// exploreResult is what a search reached — the memo closure (groups,
// expressions) and the winning plan's cost — and what it took to get
// there: rule firings, group merges, and expressions interned (the
// closure plus those that died in a merge).
type exploreResult struct {
	groups, exprs           int
	cost                    float64
	fired, merges, interned int
}

// closedSearch optimizes tree and fails the test unless the search ends at
// the transformation closure: the memo repaired (CheckRepaired) and a
// fixpoint of every rule (CheckClosed), both from export_test.go.
func closedSearch(t *testing.T, name string, vrs *volcano.RuleSet, tree *core.Expr, req *core.Descriptor) exploreResult {
	t.Helper()
	opt := volcano.NewOptimizer(vrs)
	plan, err := opt.Optimize(tree.Clone(), req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
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
	if err := opt.Memo.CheckRepaired(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if err := opt.CheckClosed(); err != nil {
		t.Errorf("%s: the search stopped short of the closure: %v", name, err)
	}
	return res
}

// TestWorklistReachesClosure: over the seeded qgen workloads (families
// E1–E4, with and without indices, both the P2V-generated and the
// hand-coded Volcano rule sets), the explorer must end every search at
// the transformation closure — Figure 14 counts its groups, so its size
// is a reproduction target, not just a perf number.
func TestWorklistReachesClosure(t *testing.T) {
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
					po := oodb.New(qgen.Catalog(fam.n, seed, indexed))
					pvrs, rep, err := p2v.Translate(po.PrairieRules())
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
					closedSearch(t, "prairie", pvrs, ptree, preq)

					// Hand-coded Volcano path.
					vo := oodb.New(qgen.Catalog(fam.n, seed, indexed))
					vtree, err := qgen.Build(vo, fam.e, fam.n)
					if err != nil {
						t.Fatal(err)
					}
					closedSearch(t, "volcano", vo.VolcanoRules(), vtree, core.NewDescriptor(vo.Alg.Props))
				})
			}
		}
	}
}

// e4n4Exprs is the size of the E4/n4 transformation closure (452 groups),
// the largest search the tests complete.
const e4n4Exprs = 4328

var oodbWorlds = []string{"oodb/prairie", "oodb/volcano"}

// goldenClosures records, per query of the server's default worlds
// (catalog seed 101), the closure size and winner cost measured before the
// memo's whole-index rebuild was replaced by parent-local repair. The
// OODB rows hold for both specifications of the optimizer. fired and
// merges are what the explorer takes to get there, held as ceilings.
// fired is what a merge waking parents with more than the merge made new
// to them would raise first (E2/n5: 5 479 when every parent of a
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
// memo: every search must end at the closure (CheckClosed), and its group
// count (Figure 14), expression count and winner cost must equal the
// recorded ones. The explorer must also build little besides the closure:
// firings and merges within their ceilings, and at most 2% of what it
// interns dying later.
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
			tree, want, err := w.Build(q)
			if err != nil {
				t.Fatal(err)
			}
			got := closedSearch(t, world+" "+q.String(), w.RS, tree, want)
			if got.groups != g.groups || got.exprs != g.exprs || math.Abs(got.cost-g.cost) > 1e-9*g.cost {
				t.Errorf("%s %s: %d groups / %d exprs / cost %v, recorded %d / %d / %v",
					world, q, got.groups, got.exprs, got.cost, g.groups, g.exprs, g.cost)
			}
			if got.fired > g.fired || got.merges > g.merges {
				t.Errorf("%s %s: the explorer fired %d rules and merged %d times, recorded ceilings %d and %d",
					world, q, got.fired, got.merges, g.fired, g.merges)
			}
			if got.interned*100 > got.exprs*102 {
				t.Errorf("%s %s: the explorer interned %d expressions to keep %d, more than 2%% over", world, q, got.interned, got.exprs)
			}
		}
	}
}

// explored returns rs with every trans_rule explored as written: no rule
// normalizes the query (TransRule.Normalize) and none skips its own
// results (TransRule.Involution). It is the full-exploration reference
// those two flags must not change the answers of.
func explored(rs *volcano.RuleSet) *volcano.RuleSet {
	out := &volcano.RuleSet{Algebra: rs.Algebra, Class: rs.Class, Impls: rs.Impls, Enforcers: rs.Enforcers}
	for _, r := range rs.Trans {
		c := *r
		c.Normalize, c.Involution = false, false
		out.Trans = append(out.Trans, &c)
	}
	return out
}

// TestNormalizeKeepsClosures: normalizing the query with the MAT push
// rules instead of exploring them, and never commuting a commuted join
// back, change no answer. Over both OODB worlds, qgen's four families on
// linear and star graphs (n ≤ 4, E4 ≤ 3), each query as written, every
// one-step rewrite of it by a trans_rule and — unless -short — every
// two-step rewrite for E1–E3, the search must reach the closure
// (CheckClosed applies the normalizing rules too) with the groups,
// expressions and winner cost of the reference that explores every rule
// in full. Plans may differ only on a rewritten input, as a tie between
// plans of equal cost found in another order.
func TestNormalizeKeepsClosures(t *testing.T) {
	reg, err := server.DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	inputs, ties := 0, 0
	for _, world := range oodbWorlds {
		w, _ := reg.Lookup(world)
		ref := explored(w.RS)
		for _, family := range []string{"E1", "E2", "E3", "E4"} {
			for _, graph := range []string{"", "star"} {
				for n := 2; n <= 4 && (family != "E4" || n <= 3); n++ {
					q := server.QuerySpec{Family: family, N: n, Graph: graph}
					tree, want, err := w.Build(q)
					if err != nil {
						t.Fatal(err)
					}
					steps := 1
					if !testing.Short() && family != "E4" {
						steps = 2
					}
					level, all := []*core.Expr{tree}, []*core.Expr{tree}
					for ; steps > 0; steps-- {
						var next []*core.Expr
						for _, in := range level {
							for _, r := range w.RS.Trans {
								next = append(next, w.RS.ApplyRule(r, in)...)
							}
						}
						all, level = append(all, next...), next
					}
					for i, in := range all {
						inputs++
						name := fmt.Sprintf("%s %s input %d", world, q, i)
						got, gotPlan := closedPlan(t, name, w.RS, in, want)
						exp, expPlan := closedPlan(t, name+" (reference)", ref, in, want)
						if got.groups != exp.groups || got.exprs != exp.exprs || math.Abs(got.cost-exp.cost) > 1e-9*exp.cost {
							t.Errorf("%s: %d groups / %d exprs / cost %v, full exploration %d / %d / %v",
								name, got.groups, got.exprs, got.cost, exp.groups, exp.exprs, exp.cost)
						}
						if gotPlan != expPlan {
							if i == 0 {
								t.Errorf("%s (as written): plan %s, full exploration %s", name, gotPlan, expPlan)
							}
							ties++
						}
					}
				}
			}
		}
	}
	t.Logf("%d inputs, %d equal-cost ties", inputs, ties)
}

// closedPlan is closedSearch, also returning the winning plan's text.
func closedPlan(t *testing.T, name string, vrs *volcano.RuleSet, tree *core.Expr, req *core.Descriptor) (exploreResult, string) {
	t.Helper()
	opt := volcano.NewOptimizer(vrs)
	plan, err := opt.Optimize(tree, req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := opt.CheckClosed(); err != nil {
		t.Errorf("%s: the search stopped short of the closure: %v", name, err)
	}
	return exploreResult{groups: opt.Stats.Groups, exprs: opt.Stats.Exprs, cost: plan.D.Float(vrs.Class.Cost)}, plan.String()
}
