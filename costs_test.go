package prairie_test

import (
	"testing"

	"prairie/internal/core"
	"prairie/internal/volcano"
)

// TestCostsCoverInputs checks the assumption branch-and-bound prunes on:
// an algorithm's cost is at least the sum of its inputs' costs, so once
// the inputs of an alternative reach the incumbent's cost no completion
// of it can win (volcano's optimizeGroup). Over the search_cold pool, in
// all four worlds, every implementation rule's and enforcer's Post is
// wrapped to compare the cost it leaves on the alternative with its
// optimized inputs' (ImplCtx.In), for every alternative costed to the end.
func TestCostsCoverInputs(t *testing.T) {
	reg, pool := searchColdPool(t)
	alternatives := 0
	for _, p := range pool {
		w, _ := reg.Lookup(p.world)
		costID := w.RS.Class.Cost
		check := func(name string, cx *volcano.ImplCtx, algD *core.Descriptor) {
			alternatives++
			sum := 0.0
			for _, in := range cx.In {
				sum += in.Float(costID)
			}
			if c := algD.Float(costID); c < sum {
				t.Errorf("%s %s: %s costs %g, below its inputs' %g", p.world, p.q, name, c, sum)
			}
		}
		rs := &volcano.RuleSet{Algebra: w.RS.Algebra, Class: w.RS.Class, Trans: w.RS.Trans}
		for _, r := range w.RS.Impls {
			c, post := *r, r.Post
			c.Post = func(cx *volcano.ImplCtx, algD *core.Descriptor) { post(cx, algD); check(r.Name, cx, algD) }
			rs.Impls = append(rs.Impls, &c)
		}
		for _, e := range w.RS.Enforcers {
			c, post := *e, e.Post
			c.Post = func(cx *volcano.ImplCtx, algD *core.Descriptor) { post(cx, algD); check(e.Name, cx, algD) }
			rs.Enforcers = append(rs.Enforcers, &c)
		}
		tree, want, err := w.Build(p.q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := volcano.NewOptimizer(rs).Optimize(tree, want); err != nil {
			t.Fatalf("%s %s: %v", p.world, p.q, err)
		}
	}
	if alternatives != 4_551 {
		t.Errorf("search_cold pool: %d alternatives costed to the end, want 4551", alternatives)
	}
}
