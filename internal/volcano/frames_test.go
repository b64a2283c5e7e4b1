package volcano_test

import (
	"os"
	"testing"

	"prairie/internal/core"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// TestCostingScratchNeverEscapes: the costing loop reuses, per recursion
// depth, a context, a requirement-merged OpDesc, an input-plan slice and
// a binding it lends the I-rule hooks, and copies only what an
// alternative that beats the incumbent keeps. After a search of each of
// the golden-closure programs (TestGoldenClosures) and of dsl E1/n6, no
// descriptor and no input slice of the winning plan or of any memoized
// winner may be one the optimizer's frames still own.
func TestCostingScratchNeverEscapes(t *testing.T) {
	dsl, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := server.DefaultRegistry(6, 101, string(dsl))
	if err != nil {
		t.Fatal(err)
	}
	type program struct {
		worlds []string
		q      server.QuerySpec
	}
	oodb := []string{"oodb/prairie", "oodb/volcano"}
	var programs []program
	for _, g := range []string{"", "star"} {
		for fam, ns := range map[string][]int{"E1": {4, 5, 6}, "E2": {3, 4, 5}, "E3": {3, 4}, "E4": {2, 3, 4}} {
			for _, n := range ns {
				if n == 4 && fam == "E4" && g == "star" {
					continue
				}
				programs = append(programs, program{oodb, server.QuerySpec{Family: fam, N: n, Graph: g}})
			}
		}
	}
	for n := 4; n <= 6; n++ {
		programs = append(programs, program{[]string{"relational"}, server.QuerySpec{Family: "E1", N: n}})
	}
	programs = append(programs, program{[]string{"dsl"}, server.QuerySpec{Family: "E1", N: 6}})
	for _, p := range programs {
		for _, world := range p.worlds {
			w, ok := reg.Lookup(world)
			if !ok {
				t.Fatalf("no world %s", world)
			}
			tree, want, err := w.Build(p.q)
			if err != nil {
				t.Fatal(err)
			}
			opt := volcano.NewOptimizer(w.RS)
			plan, err := opt.Optimize(tree, want)
			if err != nil {
				t.Fatalf("%s %s: %v", world, p.q, err)
			}
			var walk func(n *core.Expr)
			walk = func(n *core.Expr) {
				if opt.ScratchOwns(n.D) {
					t.Errorf("%s %s: a plan node keeps a descriptor a costing frame still owns", world, p.q)
				}
				if opt.ScratchKids(n.Kids) {
					// Later alternatives overwrote it: the plan may be cyclic.
					t.Errorf("%s %s: a plan node keeps a costing frame's input slice", world, p.q)
					return
				}
				for _, k := range n.Kids {
					walk(k)
				}
			}
			winners := opt.Memo.Winners()
			if len(winners) < 2 {
				t.Errorf("%s %s: %d memoized winners to check", world, p.q, len(winners))
			}
			for _, root := range append(winners, plan) {
				walk(root)
			}
		}
	}
}
