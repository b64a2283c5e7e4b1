package prairielang_test

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
	"prairie/internal/qgen"
	"prairie/internal/relopt"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// search optimizes tree with the differential rule set and runs the
// closure pass over the memo it leaves: every rule section the engine
// executes is compared against the interpreter — the pass's included,
// which fire the rules exploration leaves out (the normalizing ones) on
// every expression of the search space.
func search(t *testing.T, d *prairielang.Diff, tree *core.Expr) {
	t.Helper()
	vrs, rep, err := p2v.Translate(d.RS)
	if err != nil {
		t.Fatal(err)
	}
	tree, req, err := rep.PrepareQuery(tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := volcano.NewOptimizer(vrs)
	if _, err := opt.Optimize(tree, req); err != nil {
		t.Fatal(err)
	}
	if err := opt.CheckClosed(); err != nil {
		t.Fatal(err)
	}
}

// searchPulled searches the E2 queries over two and three classes with
// mat_pull_join_left applied at one site of each.
func searchPulled(t *testing.T, d *prairielang.Diff, po *oodb.Opt) {
	t.Helper()
	vrs, _, err := p2v.Translate(d.RS)
	if err != nil {
		t.Fatal(err)
	}
	pull := vrs.Trans[slices.IndexFunc(vrs.Trans, func(r *volcano.TransRule) bool { return r.Name == "mat_pull_join_left" })]
	pulled := 0
	for n := 2; n <= 3; n++ {
		tree, err := qgen.Build(po, qgen.E2, n)
		if err != nil {
			t.Fatal(err)
		}
		if rws := vrs.ApplyRule(pull, tree); len(rws) > 0 {
			search(t, d, rws[0])
			pulled++
		}
	}
	if pulled == 0 {
		t.Fatal("mat_pull_join_left applies to no E2 query")
	}
}

// requireAllRan gives the rules no search reaches (P2V merges some
// away) a run on default values, then fails for every compiled section
// of every rule — a T-rule's cut, an I-rule's test, pre-opt and post-opt
// — that still was never compared.
func requireAllRan(t *testing.T, d *prairielang.Diff) {
	t.Helper()
	searched := 0
	for _, n := range d.Ran {
		searched += n
	}
	d.RunOnDefaults()
	t.Logf("%d rule sections compared, %d executions inside searches", len(d.Ran), searched)
	var never []string
	for section, n := range d.Ran {
		if n == 0 {
			never = append(never, section)
		}
	}
	sort.Strings(never)
	for _, section := range never {
		t.Errorf("%s never compared", section)
	}
}

// TestDifferentialOODB runs the Open OODB specification's compiled
// actions against the interpreter on every binding — fired or rejected —
// of real searches of each query family, on linear and star graphs. The
// searches run the T-rules as P2V has them sliced: the verdict is compared
// after cond, the new nodes' identity properties after appl, and every
// descriptor after rest, which only a firing the memo keeps reaches.
func TestDifferentialOODB(t *testing.T) {
	const n = 4
	for _, indexed := range []bool{false, true} {
		po := oodb.New(qgen.Catalog(n, 101, indexed))
		rs := po.PrairieRules()
		d, err := prairielang.Differential(t, rs, oodb.Spec, po.HelperImpls())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4} {
			for _, g := range []qgen.Graph{qgen.Linear, qgen.Star} {
				tree, err := qgen.BuildGraph(po, e, n-1+int(e)%2, g)
				if err != nil {
					t.Fatal(err)
				}
				search(t, d, tree)
			}
		}
		// A firing that finds what it would build in the memo runs no
		// actions (volcano.TransRule.Keeps), so the closure pass no longer
		// runs the MAT push rules over a search's MATs over joins: one
		// query starts with a MAT pulled above its join, for the query's
		// normalization to push it back down.
		searchPulled(t, d, po)
		for _, name := range []string{"join_assoc/cond", "join_assoc/appl", "join_assoc/rest", "select_push_join_left/cond", "mat_push_join_left/appl", "mat_pull_join_left/rest", "ret_index_sweep/test"} {
			if d.Ran[name] == 0 {
				t.Errorf("no search compared %s", name)
			}
		}
		requireAllRan(t, d)
	}
}

// TestApplyAtKeepsWholeDescriptors: RuleSet.ApplyAt builds trees for the
// per-rule verifier and keeps every one, so it must run a rule's deferred
// part too — the verifier itself would not notice, it executes trees and
// execution reads identity properties only. Over the Open OODB query
// shapes the verifier starts from, closed twice under rule application,
// every property the interpreter sets on a right-side descriptor is set,
// and equal, on the corresponding node of the tree ApplyAt returns.
func TestApplyAtKeepsWholeDescriptors(t *testing.T) {
	po := oodb.New(qgen.Catalog(3, 101, false))
	rs := po.PrairieRules()
	d, err := prairielang.Differential(t, rs, oodb.Spec, po.HelperImpls())
	if err != nil {
		t.Fatal(err)
	}
	vrs, _, err := p2v.Translate(d.RS)
	if err != nil {
		t.Fatal(err)
	}
	var level []*core.Expr
	seed := func(tree *core.Expr, err error) {
		if err != nil {
			t.Fatal(err)
		}
		level = append(level, tree)
	}
	for _, e := range []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4} {
		for n := 2; n <= 3; n++ {
			seed(qgen.Build(po, e, n))
		}
	}
	seed(qgen.BuildGraph(po, qgen.E1, 3, qgen.Star))
	seed(qgen.BuildRefJoin(po, 1))
	seed(qgen.BuildUnnest(po, 1, true))

	// nodesOf pairs the right side's nodes with the rewritten tree's.
	var nodesOf func(p *core.PatNode, e *core.Expr, visit func(desc string, e *core.Expr))
	nodesOf = func(p *core.PatNode, e *core.Expr, visit func(string, *core.Expr)) {
		if p.IsVar() {
			return
		}
		visit(p.Desc, e)
		for i, k := range p.Kids {
			nodesOf(k, e.Kids[i], visit)
		}
	}
	var pathTo func(tree, site *core.Expr) ([]int, bool)
	pathTo = func(tree, site *core.Expr) ([]int, bool) {
		if tree == site {
			return nil, true
		}
		for i, k := range tree.Kids {
			if path, ok := pathTo(k, site); ok {
				return append([]int{i}, path...), true
			}
		}
		return nil, false
	}
	checked := map[string]int{}
	seen := map[string]bool{}
	for depth := 0; depth < 3; depth++ {
		var next []*core.Expr
		for _, tree := range level {
			for _, r := range vrs.Trans {
				for _, site := range vrs.Sites(r, tree) {
					rw, ok := vrs.ApplyAt(r, tree, site)
					if !ok {
						continue
					}
					if d.Want == nil {
						t.Fatalf("%s fired at %s but the interpreter has no outcome", r.Name, tree)
					}
					at := rw
					path, _ := pathTo(tree, site)
					for _, i := range path {
						at = at.Kids[i]
					}
					nodesOf(r.RHS, at, func(desc string, e *core.Expr) {
						want := d.Want.D(desc)
						for i := 0; i < want.Props().Len(); i++ {
							id := core.PropID(i)
							if want.Has(id) && (!e.D.Has(id) || !e.D.Get(id).Equal(want.Get(id))) {
								t.Errorf("%s at %s: %s.%s is %v (set %v) on the rewritten tree, the interpreter sets %v",
									r.Name, tree, desc, want.Props().At(id).Name, e.D.Get(id), e.D.Has(id), want.Get(id))
							}
						}
					})
					checked[r.Name]++
					if key := rw.Format(); !seen[key] && len(next) < 150 {
						seen[key] = true
						next = append(next, rw)
					}
				}
			}
		}
		level = next
	}
	for _, r := range vrs.Trans {
		if checked[r.Name] == 0 {
			t.Errorf("%s never fired", r.Name)
		}
	}
	t.Logf("rewrites checked per rule: %v", checked)
}

// relationalChain builds SORT(JOIN(...JOIN(RET(R1), RET(R2))..., RET(Rn)))
// for the two small relational specifications, setting the properties
// each of them declares.
func relationalChain(t *testing.T, a *core.Algebra, n int) *core.Expr {
	t.Helper()
	ps := a.Props
	set := func(d *core.Descriptor, name string, v core.Value) {
		if id, ok := ps.Lookup(name); ok {
			d.Set(id, v)
		}
	}
	ret := func(i int) *core.Expr {
		name := fmt.Sprintf("R%d", i)
		d := core.NewDescriptor(ps)
		set(d, "num_records", core.Float(int(1)<<uint(10-i)))
		set(d, "attributes", core.Attrs{core.A(name, "a")})
		return core.NewNode(a.MustOp("RET"), d.Clone(), core.NewLeaf(name, d))
	}
	cur := ret(1)
	for i := 2; i <= n; i++ {
		r := ret(i)
		d := core.NewDescriptor(ps)
		set(d, "num_records", core.Float(int(1)<<uint(10-i)))
		if at, ok := ps.Lookup("attributes"); ok {
			d.Set(at, cur.D.AttrList(at).Union(r.D.AttrList(at)))
		}
		set(d, "join_predicate", core.EqAttr(core.A(fmt.Sprintf("R%d", i-1), "a"), core.A(fmt.Sprintf("R%d", i), "a")))
		cur = core.NewNode(a.MustOp("JOIN"), d, cur, r)
	}
	d := cur.D.Clone()
	set(d, "tuple_order", core.OrderBy(core.A("R1", "a")))
	return core.NewNode(a.MustOp("SORT"), d, cur)
}

// TestDifferentialRelational does the same for the relational
// optimizer's specification on its own queries — selective, over indexed
// relations, sorted at the root so the Merge_sort enforcer runs — and for
// the example specification the dsl world serves and lang_test.go's
// miniSpec on chains of R1..Rn.
func TestDifferentialRelational(t *testing.T) {
	t.Run("relopt", func(t *testing.T) {
		o := relopt.New(catalog.Generate(catalog.DefaultGen(5, 101, true)))
		rs := o.PrairieRules()
		d, err := prairielang.Differential(t, rs, relopt.Spec, o.HelperImpls())
		if err != nil {
			t.Fatal(err)
		}
		for n := 2; n <= 5; n++ {
			q := relopt.QuerySpec{Select: true}
			for i := 1; i <= n; i++ {
				q.Relations = append(q.Relations, catalog.ClassName(i))
			}
			tree, err := o.Build(q)
			if err != nil {
				t.Fatal(err)
			}
			search(t, d, o.Sort(tree, o.Cat.Sym(catalog.ClassName(1), "a")))
		}
		for _, name := range []string{"join_assoc/cond", "join_assoc/appl", "ret_index_scan/test", "sort_merge_sort/postopt"} {
			if d.Ran[name] == 0 {
				t.Errorf("no search compared %s", name)
			}
		}
		requireAllRan(t, d)
	})
	example, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct {
		name, src string
		impls     map[string]prairielang.HelperImpl
	}{
		{"dslrules", string(example), server.DSLHelpers()},
		{"miniSpec", prairielang.MiniSpec, prairielang.MiniImpls()},
	} {
		t.Run(spec.name, func(t *testing.T) {
			rs, err := prairielang.ParseAndCompile(spec.src, spec.impls)
			if err != nil {
				t.Fatal(err)
			}
			d, err := prairielang.Differential(t, rs, spec.src, spec.impls)
			if err != nil {
				t.Fatal(err)
			}
			for n := 2; n <= 5; n++ {
				search(t, d, relationalChain(t, rs.Algebra, n))
			}
			if d.Ran["join_commute/appl"] == 0 {
				t.Error("no search compared join_commute/appl")
			}
			requireAllRan(t, d)
		})
	}
}
