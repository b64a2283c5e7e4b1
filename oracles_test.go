package prairie_test

import (
	"math"
	"testing"

	"prairie/internal/server"
	"prairie/internal/volcano"
)

// joinSpace counts the memo's join groups (those holding a JOIN) and join
// expressions.
func joinSpace(m *volcano.Memo) (groups, exprs int) {
	for _, g := range m.Groups() {
		n := 0
		for _, e := range g.Exprs {
			if !e.IsLeaf() && e.Op.Name == "JOIN" {
				n++
			}
		}
		if n > 0 {
			groups++
			exprs += n
		}
	}
	return groups, exprs
}

// TestJoinClosedForms checks the E1 join space against its closed forms
// for n = 2…8 classes. Under commutativity and associativity a chain
// query's connected sub-chains are its join groups, n(n−1)/2 of them,
// holding (n³−n)/3 join expressions; a star's are the sub-stars through
// the hub, 2^(n−1)−1 groups with (n−1)·2^(n−1) expressions. The ratio
// of rule firings to expressions is logged: it is what exploration pays
// per expression it keeps.
func TestJoinClosedForms(t *testing.T) {
	reg, err := server.DefaultRegistry(8, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		graph         string
		worlds        []string
		groups, exprs func(n int) int
	}{
		{"", []string{"oodb/prairie", "oodb/volcano", "relational"},
			func(n int) int { return n * (n - 1) / 2 },
			func(n int) int { return (n*n*n - n) / 3 }},
		{"star", []string{"oodb/prairie", "oodb/volcano"},
			func(n int) int { return 1<<(n-1) - 1 },
			func(n int) int { return (n - 1) << (n - 1) }},
	} {
		for _, world := range c.worlds {
			w, ok := reg.Lookup(world)
			if !ok {
				t.Fatalf("no world %s", world)
			}
			for n := 2; n <= 8; n++ {
				q := server.QuerySpec{Family: "E1", N: n, Graph: c.graph}
				tree, want, err := w.Build(q)
				if err != nil {
					t.Fatal(err)
				}
				opt := volcano.NewOptimizer(w.RS)
				if _, err := opt.Optimize(tree, want); err != nil {
					t.Fatalf("%s %s: %v", world, q, err)
				}
				groups, exprs := joinSpace(opt.Memo)
				if groups != c.groups(n) || exprs != c.exprs(n) {
					t.Errorf("%s %s: %d join groups / %d join expressions, closed form %d / %d",
						world, q, groups, exprs, c.groups(n), c.exprs(n))
				}
				fired := 0
				for _, k := range opt.Stats.TransFired {
					fired += k
				}
				t.Logf("%s %s: %d firings / %d expressions = %.2f", world, q, fired, opt.Stats.Exprs,
					float64(fired)/float64(opt.Stats.Exprs))
			}
		}
	}
}

// TestRewrittenQueriesSearchAlike: how a query is written does not
// matter. Every one-step rewrite of a search_cold program by one of its
// rule set's trans_rules (RuleSet.ApplyRule) is an equivalent query, and
// its search must reach the same closure — as many groups and
// expressions — and a winner of the same cost.
func TestRewrittenQueriesSearchAlike(t *testing.T) {
	reg, pool := searchColdPool(t)
	rewrites := 0
	for _, p := range pool {
		w, _ := reg.Lookup(p.world)
		tree, want, err := w.Build(p.q)
		if err != nil {
			t.Fatal(err)
		}
		opt := volcano.NewOptimizer(w.RS)
		plan, err := opt.Optimize(tree, want)
		if err != nil {
			t.Fatalf("%s %s: %v", p.world, p.q, err)
		}
		cost, groups, exprs := plan.D.Float(w.RS.Class.Cost), opt.Stats.Groups, opt.Stats.Exprs
		for _, r := range w.RS.Trans {
			for _, rw := range w.RS.ApplyRule(r, tree) {
				rewrites++
				opt := volcano.NewOptimizer(w.RS)
				plan, err := opt.Optimize(rw, want)
				if err != nil {
					t.Fatalf("%s %s after %s: %v", p.world, p.q, r.Name, err)
				}
				c := plan.D.Float(w.RS.Class.Cost)
				if opt.Stats.Groups != groups || opt.Stats.Exprs != exprs || math.Abs(c-cost) > 1e-9*cost {
					t.Errorf("%s %s after %s: %d groups / %d exprs / cost %v, as written %d / %d / %v",
						p.world, p.q, r.Name, opt.Stats.Groups, opt.Stats.Exprs, c, groups, exprs, cost)
				}
			}
		}
	}
	if rewrites != 110 {
		t.Errorf("the search_cold pool has %d one-step rewrites, want 110", rewrites)
	}
}
