package prairie_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
// expressions — and a winner of the same cost. So is every chain of
// rewrites: three seeded random chains of two steps and three of three
// per program (each step one of all the one-step rewrites of the tree
// before it) must search to a winner no cheaper than the as-written
// query's. The test logs how many also reach the same groups,
// expressions and cost, and each chain that does not: one of the 84, a
// three-step chain on oodb/volcano E4/n3, closes at 101 groups and 492
// expressions instead of 111 and 661, at the same cost.
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
	chains, alike := 0, 0
	for i, p := range pool {
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
		rng := rand.New(rand.NewSource(int64(i)))
		for _, steps := range []int{2, 2, 2, 3, 3, 3} {
			rw, via := tree, ""
			for s := 0; s < steps; s++ {
				var next []*core.Expr
				var names []string
				for _, r := range w.RS.Trans {
					for _, e := range w.RS.ApplyRule(r, rw) {
						next, names = append(next, e), append(names, r.Name)
					}
				}
				if len(next) == 0 {
					break
				}
				k := rng.Intn(len(next))
				rw, via = next[k], via+" "+names[k]
			}
			chains++
			opt := volcano.NewOptimizer(w.RS)
			plan, err := opt.Optimize(rw, want)
			if err != nil {
				t.Fatalf("%s %s after%s: %v", p.world, p.q, via, err)
			}
			c := plan.D.Float(w.RS.Class.Cost)
			if c < cost*(1-1e-9) {
				t.Errorf("%s %s after%s: cost %v beats the as-written search's %v", p.world, p.q, via, c, cost)
			}
			if opt.Stats.Groups == groups && opt.Stats.Exprs == exprs && math.Abs(c-cost) <= 1e-9*cost {
				alike++
			} else {
				t.Logf("%s %s after%s: %d groups / %d exprs / cost %v, as written %d / %d / %v",
					p.world, p.q, via, opt.Stats.Groups, opt.Stats.Exprs, c, groups, exprs, cost)
			}
		}
	}
	t.Logf("%d of %d rewrite chains search alike to the letter", alike, chains)
}

// TestInterruptedSearchNeverWorseThanGreedy: a search cut short is never
// worse than not searching. Every search_cold program is cut two ways:
// under Budget{MaxExprs: k} for a sweep of k below the full search's
// expression count, and by a context cancelled from OnEvent at the k-th
// trace event for a sweep of k below the full search's event count
// (eight values each under -short, about sixty-four otherwise). The plan
// a cut search returns — salvaged from the partial memo, or its seed's
// when the memo holds no complete winner — must cost no less than the
// full search's winner and no more than GreedyPlan's. On a sample of the
// cuts the plan runs on 16-row tables, and its rows must bag-equal the
// naive evaluation of the query. (A cancel is seen at the next clock
// checkpoint, so a cut near the end may let the search complete.)
func TestInterruptedSearchNeverWorseThanGreedy(t *testing.T) {
	reg, pool := searchColdPool(t)
	spread := 64
	if testing.Short() {
		spread = 8
	}
	runs, salvaged, cancelled, executed := 0, 0, 0, 0
	for _, p := range pool {
		w, _ := reg.Lookup(p.world)
		tree, want, err := w.Build(p.q)
		if err != nil {
			t.Fatal(err)
		}
		full := volcano.NewOptimizer(w.RS)
		events := 0
		full.OnEvent = func(volcano.Event) { events++ }
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
		// check holds one cut search's plan to the bounds, and runs it
		// on every eighth cut of its sweep.
		check := func(cut string, i int, opt *volcano.Optimizer, plan *core.Expr, err error) {
			t.Helper()
			runs++
			if err != nil {
				t.Fatalf("%s %s, %s: %v", p.world, p.q, cut, err)
			}
			if opt.Stats.DegradePath == volcano.DegradePathMemo {
				salvaged++
			}
			if c := costOf(plan); c < lo*(1-1e-9) || c > hi*(1+1e-9) {
				t.Errorf("%s %s, %s (%s): cost %v outside [full search %v, greedy %v]",
					p.world, p.q, cut, opt.Stats.DegradePath, c, lo, hi)
			}
			if naive == nil || i%8 != 0 {
				return
			}
			executed++
			it, err := exec.NewCompiler(db, w.ExecProps).Compile(plan)
			if err != nil {
				t.Fatalf("%s %s, %s: compile: %v", p.world, p.q, cut, err)
			}
			got, err := exec.Run(it)
			if err != nil {
				t.Fatalf("%s %s, %s: run: %v", p.world, p.q, cut, err)
			}
			if !exec.SameBag(got, naive) {
				t.Errorf("%s %s, %s: the plan returns %d rows, the naive evaluation %d: bags differ",
					p.world, p.q, cut, len(got.Rows), len(naive.Rows))
			}
		}
		step := max(1, full.Stats.Exprs/spread)
		for i, k := 0, 1; k < full.Stats.Exprs; i, k = i+1, k+step {
			opt := volcano.NewOptimizer(w.RS)
			opt.Opts.Budget = volcano.Budget{MaxExprs: k}
			plan, err := opt.Optimize(tree, want)
			if err == nil && !opt.Stats.Degraded {
				t.Errorf("%s %s, MaxExprs %d of %d: the search was not interrupted", p.world, p.q, k, full.Stats.Exprs)
			}
			check(fmt.Sprintf("MaxExprs %d", k), i, opt, plan, err)
		}
		step = max(1, events/spread)
		for i, k := 0, 1; k < events; i, k = i+1, k+step {
			ctx, cancel := context.WithCancel(context.Background())
			opt := volcano.NewOptimizer(w.RS)
			n := 0
			opt.OnEvent = func(volcano.Event) {
				if n++; n == k {
					cancel()
				}
			}
			plan, err := opt.OptimizeContext(ctx, tree, want)
			cancel()
			if opt.Stats.Degraded {
				cancelled++
			}
			check(fmt.Sprintf("cancelled at event %d of %d", k, events), i, opt, plan, err)
		}
	}
	t.Logf("%d interrupted searches, %d salvaged from the memo, %d degraded by a cancel, %d executed",
		runs, salvaged, cancelled, executed)
}

// TestCancelledSearchIsGreedyPlan: a search whose context is cancelled
// before it starts plans the query as written. For every shape the
// default registry builds (each world, E1–E4, n = 2…6, each join graph
// the world accepts), the cancelled search returns GreedyPlan's plan —
// the same text and cost — by the bottom-up path. The memo holds the
// normalized query, so the test first checks that the tree phase leaves
// the shape as written (no normalizing rule fires) and names any shape
// a normalizing rule rewrites instead of comparing its plans.
func TestCancelledSearchIsGreedyPlan(t *testing.T) {
	reg, _ := searchColdPool(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shapes := 0
	for _, world := range reg.Names() {
		w, _ := reg.Lookup(world)
		for _, family := range []string{"E1", "E2", "E3", "E4"} {
			for n := 2; n <= 6; n++ {
				for _, graph := range []string{"", "star"} {
					q := server.QuerySpec{Family: family, N: n, Graph: graph}
					tree, want, err := w.Build(q)
					if err != nil {
						continue // a shape the world does not build
					}
					shapes++
					opt := volcano.NewOptimizer(w.RS)
					normalized := 0
					opt.OnEvent = func(e volcano.Event) {
						if e.Kind == volcano.EventTransFired && e.Group < 0 {
							normalized++
						}
					}
					plan, err := opt.OptimizeContext(ctx, tree, want)
					if err != nil {
						t.Fatalf("%s %s: %v", world, q, err)
					}
					if normalized > 0 {
						t.Errorf("%s %s: the tree phase rewrote the query (%d normalizing firings); its seed is not the tree GreedyPlan plans",
							world, q, normalized)
						continue
					}
					greedy, err := volcano.GreedyPlan(w.RS, tree, want)
					if err != nil {
						t.Fatalf("%s %s: greedy: %v", world, q, err)
					}
					st := opt.Stats
					if !st.Degraded || st.DegradeCause != volcano.CauseCancelled || st.DegradePath != volcano.DegradePathGreedy {
						t.Errorf("%s %s: degraded %v, cause %s, path %q; want a cancelled search degraded by %q",
							world, q, st.Degraded, st.DegradeCause, st.DegradePath, volcano.DegradePathGreedy)
					}
					cost := w.RS.Class.Cost
					if plan.String() != greedy.String() || plan.D.Float(cost) != greedy.D.Float(cost) {
						t.Errorf("%s %s: the cancelled search returned %s (cost %v), GreedyPlan %s (cost %v)",
							world, q, plan, plan.D.Float(cost), greedy, greedy.D.Float(cost))
					}
				}
			}
		}
	}
	if shapes != 105 {
		t.Errorf("the default registry builds %d shapes, want 105", shapes)
	}
}
