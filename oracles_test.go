package prairie_test

import (
	"math"
	"testing"

	"prairie/internal/core"
	"prairie/internal/exec"
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

// TestInterruptedSearchNeverWorseThanGreedy: a search cut short by its
// expression budget is never worse than not searching. Every search_cold
// program runs under Budget{MaxExprs: k} for a sweep of k below the full
// search's expression count (eight values under -short, about sixty-four
// otherwise), and the plan it returns — salvaged from the partial memo,
// or GreedyPlan's when the memo holds no complete winner — must cost no
// less than the full search's winner and no more than GreedyPlan's. On a
// sample of the cuts the plan runs on 16-row tables, and its rows must
// bag-equal the naive evaluation of the query.
func TestInterruptedSearchNeverWorseThanGreedy(t *testing.T) {
	reg, pool := searchColdPool(t)
	spread := 64
	if testing.Short() {
		spread = 8
	}
	runs, salvaged, executed := 0, 0, 0
	for _, p := range pool {
		w, _ := reg.Lookup(p.world)
		tree, want, err := w.Build(p.q)
		if err != nil {
			t.Fatal(err)
		}
		full := volcano.NewOptimizer(w.RS)
		best, err := full.Optimize(tree, want)
		if err != nil {
			t.Fatalf("%s %s: %v", p.world, p.q, err)
		}
		greedy, err := volcano.GreedyPlan(w.RS, tree, want)
		if err != nil {
			t.Fatalf("%s %s: greedy: %v", p.world, p.q, err)
		}
		costOf := func(plan *core.Expr) float64 { return plan.D.Float(w.RS.Class.Cost) }
		lo, hi := costOf(best), costOf(greedy)
		var naive *exec.Result
		db := w.ExecDB(101, 16)
		if db != nil {
			if naive, err = (&exec.Naive{DB: db, P: w.ExecProps}).Eval(tree); err != nil {
				t.Fatalf("%s %s: naive: %v", p.world, p.q, err)
			}
		}
		step := max(1, full.Stats.Exprs/spread)
		for i, k := 0, 1; k < full.Stats.Exprs; i, k = i+1, k+step {
			runs++
			opt := volcano.NewOptimizer(w.RS)
			opt.Opts.Budget = volcano.Budget{MaxExprs: k}
			plan, err := opt.Optimize(tree, want)
			if err != nil {
				t.Fatalf("%s %s, MaxExprs %d: %v", p.world, p.q, k, err)
			}
			if !opt.Stats.Degraded {
				t.Errorf("%s %s, MaxExprs %d of %d: the search was not interrupted", p.world, p.q, k, full.Stats.Exprs)
			}
			if opt.Stats.DegradePath == volcano.DegradePathMemo {
				salvaged++
			}
			if c := costOf(plan); c < lo*(1-1e-9) || c > hi*(1+1e-9) {
				t.Errorf("%s %s, MaxExprs %d (%s): cost %v outside [full search %v, greedy %v]",
					p.world, p.q, k, opt.Stats.DegradePath, c, lo, hi)
			}
			if naive == nil || i%8 != 0 {
				continue
			}
			executed++
			it, err := exec.NewCompiler(db, w.ExecProps).Compile(plan)
			if err != nil {
				t.Fatalf("%s %s, MaxExprs %d: compile: %v", p.world, p.q, k, err)
			}
			got, err := exec.Run(it)
			if err != nil {
				t.Fatalf("%s %s, MaxExprs %d: run: %v", p.world, p.q, k, err)
			}
			if !exec.SameBag(got, naive) {
				t.Errorf("%s %s, MaxExprs %d: the plan returns %d rows, the naive evaluation %d: bags differ",
					p.world, p.q, k, len(got.Rows), len(naive.Rows))
			}
		}
	}
	t.Logf("%d interrupted searches, %d salvaged from the memo, %d executed", runs, salvaged, executed)
}
