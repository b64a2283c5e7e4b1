package volcano

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"prairie/internal/core"
)

// testWorld bundles a small hand-coded Volcano rule set over the paper's
// running-example algebra (RET, JOIN, SORT; Table 1) for engine tests.
type testWorld struct {
	alg                *core.Algebra
	rs                 *RuleSet
	ord, jp, at, nr, c core.PropID
	ret, join          *core.Operation
	cards              map[string]float64
}

// sel assigns every equi-join conjunct selectivity 1/2: a power of two,
// so cardinality products are exact in float64 and independent of
// association order (required for duplicate detection in the memo).
func (w *testWorld) sel(p *core.Pred) float64 {
	return math.Pow(0.5, float64(len(p.Conjuncts())))
}

func newTestWorld() *testWorld {
	w := &testWorld{cards: map[string]float64{}}
	a := core.NewAlgebra("relational")
	w.alg = a
	w.ord = a.Props.Define("tuple_order", core.KindOrder)
	w.jp = a.Props.Define("join_predicate", core.KindPred)
	w.at = a.Props.Define("attributes", core.KindAttrs)
	w.nr = a.Props.Define("num_records", core.KindFloat)
	w.c = a.Props.Define("cost", core.KindCost)
	w.ret = a.Operator("RET", 1)
	w.join = a.Operator("JOIN", 2)
	fileScan := a.Algorithm("File_scan", 1)
	nl := a.Algorithm("Nested_loops", 2)
	mj := a.Algorithm("Merge_join", 2)
	ms := a.Algorithm("Merge_sort", 1)

	rs := NewRuleSet(a)
	w.rs = rs
	rs.SetPhys(w.ord)

	// Join commutativity.
	rs.AddTrans(&TransRule{
		Name: "join_commute",
		LHS:  core.POp(w.join, "D3", core.PVar(1, "D1"), core.PVar(2, "D2")),
		RHS:  core.POp(w.join, "D4", core.PVar(2, ""), core.PVar(1, "")),
		Appl: func(b *TBinding) { b.D("D4").CopyFrom(b.D("D3")) },
	})
	// Join associativity with predicate redistribution; the cond code
	// plays the paper's "is_associative" helper: reject rewrites that
	// introduce cross products.
	rs.AddTrans(&TransRule{
		Name: "join_assoc",
		LHS: core.POp(w.join, "D5",
			core.POp(w.join, "D3", core.PVar(1, "D1"), core.PVar(2, "D2")),
			core.PVar(3, "D4")),
		RHS: core.POp(w.join, "D7",
			core.PVar(1, ""),
			core.POp(w.join, "D6", core.PVar(2, ""), core.PVar(3, ""))),
		Cond: func(b *TBinding) bool {
			a23 := b.D("D2").AttrList(w.at).Union(b.D("D4").AttrList(w.at))
			all := core.And(b.D("D3").Pred(w.jp), b.D("D5").Pred(w.jp))
			inner, outer := all.SplitBy(a23)
			// No cross products: the inner join must connect ?2 and ?3,
			// and the outer must connect ?1 with the inner result.
			if !touches(inner, b.D("D2").AttrList(w.at)) || !touches(inner, b.D("D4").AttrList(w.at)) {
				return false
			}
			if !touches(outer, b.D("D1").AttrList(w.at)) {
				return false
			}
			d6 := b.D("D6")
			d6.Set(w.at, a23)
			d6.Set(w.jp, inner)
			d6.SetFloat(w.nr, b.D("D2").Float(w.nr)*b.D("D4").Float(w.nr)*selOf(inner))
			return true
		},
		Appl: func(b *TBinding) {
			d7 := b.D("D7")
			d7.CopyFrom(b.D("D5"))
			d7.Set(w.jp, outerOf(b, w))
		},
	})

	// RET -> File_scan: full scan, no useful order.
	rs.AddImpl(&ImplRule{
		Name: "ret_file_scan", Op: w.ret, Alg: fileScan,
		Pre: func(cx *ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			d := cx.OpDesc.Clone()
			d.Set(w.ord, core.DontCareOrder)
			return d, []*core.Descriptor{nil}
		},
		Post: func(cx *ImplCtx, d *core.Descriptor) {
			d.Set(w.c, core.Cost(cx.In[0].Float(w.nr)))
		},
	})
	// JOIN -> Nested_loops: output order follows the outer input.
	rs.AddImpl(&ImplRule{
		Name: "join_nested_loops", Op: w.join, Alg: nl,
		Pre: func(cx *ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			d := cx.OpDesc.Clone()
			outerReq := core.NewDescriptor(a.Props)
			outerReq.Set(w.ord, cx.OpDesc.Order(w.ord))
			return d, []*core.Descriptor{outerReq, nil}
		},
		Post: func(cx *ImplCtx, d *core.Descriptor) {
			d.Set(w.ord, cx.In[0].Order(w.ord))
			d.Set(w.c, core.Cost(cx.In[0].Float(w.c)+cx.In[0].Float(w.nr)*cx.In[1].Float(w.c)))
		},
	})
	// JOIN -> Merge_join: needs an equi-join and sorted inputs.
	rs.AddImpl(&ImplRule{
		Name: "join_merge_join", Op: w.join, Alg: mj,
		Cond: func(cx *ImplCtx) bool { return cx.OpDesc.Pred(w.jp).IsEquiJoin() },
		Pre: func(cx *ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			p := cx.OpDesc.Pred(w.jp)
			d := cx.OpDesc.Clone()
			// The outer attribute of the equi-join term may belong to
			// either input; orient it by attribute membership.
			l, r := p.Left, p.Right
			if !cx.Kids[0].AttrList(w.at).Contains(l) {
				l, r = r, l
			}
			d.Set(w.ord, core.OrderBy(l))
			lr := core.NewDescriptor(a.Props)
			lr.Set(w.ord, core.OrderBy(l))
			rr := core.NewDescriptor(a.Props)
			rr.Set(w.ord, core.OrderBy(r))
			return d, []*core.Descriptor{lr, rr}
		},
		Post: func(cx *ImplCtx, d *core.Descriptor) {
			d.Set(w.c, core.Cost(cx.In[0].Float(w.c)+cx.In[1].Float(w.c)+
				cx.In[0].Float(w.nr)+cx.In[1].Float(w.nr)))
		},
	})
	// Merge_sort enforcer: produces any requested tuple order.
	rs.AddEnforcer(&Enforcer{
		Name: "merge_sort", Alg: ms, Props: []core.PropID{w.ord},
		Cond: func(cx *ImplCtx) bool {
			ord := cx.Req.Order(w.ord)
			return cx.Req.Has(w.ord) && !ord.IsDontCare() &&
				ord.Within(cx.OpDesc.AttrList(w.at))
		},
		Pre: func(cx *ImplCtx) (*core.Descriptor, *core.Descriptor) {
			d := cx.OpDesc.Clone()
			d.Set(w.ord, cx.Req.Order(w.ord))
			in := core.NewDescriptor(a.Props)
			in.Set(w.ord, core.DontCareOrder)
			return d, in
		},
		Post: func(cx *ImplCtx, d *core.Descriptor) {
			n := math.Max(cx.In[0].Float(w.nr), 1)
			d.Set(w.c, core.Cost(cx.In[0].Float(w.c)+n*math.Log2(n+1)))
		},
	})
	return w
}

func touches(p *core.Pred, set core.Attrs) bool {
	return len(p.Attrs().Intersect(set)) > 0
}

func selOf(p *core.Pred) float64 { return math.Pow(0.5, float64(len(p.Conjuncts()))) }

func outerOf(b *TBinding, w *testWorld) *core.Pred {
	a23 := b.D("D2").AttrList(w.at).Union(b.D("D4").AttrList(w.at))
	all := core.And(b.D("D3").Pred(w.jp), b.D("D5").Pred(w.jp))
	_, outer := all.SplitBy(a23)
	return outer
}

// leaf builds a stored-file leaf with catalog-style annotations.
func (w *testWorld) leaf(name string, card float64, attrs ...core.Attr) *core.Expr {
	d := w.alg.NewDesc()
	d.Set(w.at, core.Attrs(attrs))
	d.SetFloat(w.nr, card)
	d.Set(w.c, core.Cost(0))
	w.cards[name] = card
	return core.NewLeaf(name, d)
}

// retOf wraps a leaf in RET.
func (w *testWorld) retOf(l *core.Expr) *core.Expr {
	d := l.D.Clone()
	return core.NewNode(w.ret, d, l)
}

// joinOf joins two subtrees on pred.
func (w *testWorld) joinOf(l, r *core.Expr, pred *core.Pred) *core.Expr {
	d := w.alg.NewDesc()
	d.Set(w.at, l.D.AttrList(w.at).Union(r.D.AttrList(w.at)))
	d.Set(w.jp, pred)
	d.SetFloat(w.nr, l.D.Float(w.nr)*r.D.Float(w.nr)*selOf(pred))
	return core.NewNode(w.join, d, l, r)
}

// chain builds RET(R1) JOIN RET(R2) JOIN ... with linear predicates
// Ri.a = Ri+1.a, left-deep.
func (w *testWorld) chain(cards ...float64) *core.Expr {
	cur := w.retOf(w.leaf("R1", cards[0], core.A("R1", "a"), core.A("R1", "b")))
	for i := 1; i < len(cards); i++ {
		rel := relName(i + 1)
		next := w.retOf(w.leaf(rel, cards[i], core.A(rel, "a"), core.A(rel, "b")))
		pred := core.EqAttr(core.A(relName(i), "a"), core.A(rel, "a"))
		cur = w.joinOf(cur, next, pred)
	}
	return cur
}

func relName(i int) string { return "R" + string(rune('0'+i)) }

func TestRuleSetValidate(t *testing.T) {
	w := newTestWorld()
	if errs := w.rs.Validate(); len(errs) != 0 {
		t.Fatalf("valid rule set rejected: %v", errs)
	}
	bad := NewRuleSet(w.alg)
	bad.AddImpl(&ImplRule{Name: "no_hooks", Op: w.ret, Alg: w.alg.MustOp("File_scan")})
	bad.AddEnforcer(&Enforcer{Name: "e", Alg: w.alg.MustOp("Merge_sort"),
		Props: []core.PropID{w.ord}})
	errs := bad.Validate()
	if len(errs) < 3 {
		t.Errorf("expected hook + phys errors, got %v", errs)
	}
	// A left side three operators deep: neither explorer would re-match it
	// when only a grand-input grows.
	deep := NewRuleSet(w.alg)
	deep.Class = w.rs.Class
	deep.AddTrans(&TransRule{
		Name: "rotate3",
		LHS: core.POp(w.join, "D7",
			core.POp(w.join, "D5", core.POp(w.join, "D3", core.PVar(1, ""), core.PVar(2, "")), core.PVar(3, "")),
			core.PVar(4, "")),
		RHS: core.POp(w.join, "D8", core.PVar(1, ""), core.PVar(2, "")),
	})
	if errs := deep.Validate(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "rotate3 matches 3 operators deep, limit 2") {
		t.Errorf("depth-3 trans_rule: got %v", errs)
	}
}

func TestClassification(t *testing.T) {
	w := newTestWorld()
	c := w.rs.Class
	if c.Cost != w.c {
		t.Error("cost property not classified")
	}
	if !c.IsPhys(w.ord) || c.IsArg(w.ord) {
		t.Error("tuple_order should be physical only")
	}
	if !c.IsArg(w.jp) || c.IsPhys(w.jp) {
		t.Error("join_predicate should be argument only")
	}
}

func TestMemoLeafInterning(t *testing.T) {
	w := newTestWorld()
	m := NewMemo(w.rs)
	l := w.leaf("R1", 8, core.A("R1", "a"))
	g1 := m.InsertLeaf(l.File, l.D)
	g2 := m.InsertLeaf("R1", l.D.Clone())
	if g1 != g2 {
		t.Error("same file should intern to one group")
	}
	g3 := m.InsertLeaf("R2", l.D.Clone())
	if g3 == g1 {
		t.Error("different files must not share a group")
	}
	if m.NumGroups() != 2 || m.NumExprs() != 2 {
		t.Errorf("groups=%d exprs=%d", m.NumGroups(), m.NumExprs())
	}
}

func TestMemoExprDedup(t *testing.T) {
	w := newTestWorld()
	m := NewMemo(w.rs)
	l1 := m.InsertLeaf("R1", w.leaf("R1", 8, core.A("R1", "a")).D)
	l2 := m.InsertLeaf("R2", w.leaf("R2", 4, core.A("R2", "a")).D)
	d := w.alg.NewDesc()
	d.Set(w.jp, core.EqAttr(core.A("R1", "a"), core.A("R2", "a")))
	g1, ch1 := m.InsertExpr(w.join, d, []GroupID{l1, l2}, -1)
	if !ch1 {
		t.Error("first insert should change the memo")
	}
	// Identical argument properties: dedup, even with different
	// physical/cost annotations.
	d2 := d.Clone()
	d2.Set(w.ord, core.OrderBy(core.A("R1", "a"))) // physical: not identity
	g2, ch2 := m.InsertExpr(w.join, d2, []GroupID{l1, l2}, -1)
	if ch2 || g2 != g1 {
		t.Error("expression with same argument properties should dedup")
	}
	// Different join predicate: a different expression.
	d3 := d.Clone()
	d3.Set(w.jp, core.EqAttr(core.A("R1", "a"), core.A("R2", "b")))
	g3, _ := m.InsertExpr(w.join, d3, []GroupID{l1, l2}, -1)
	if g3 == g1 {
		t.Error("different argument properties must not dedup")
	}
}

func TestMemoGroupMerge(t *testing.T) {
	w := newTestWorld()
	m := NewMemo(w.rs)
	l1 := m.InsertLeaf("R1", w.leaf("R1", 8, core.A("R1", "a")).D)
	l2 := m.InsertLeaf("R2", w.leaf("R2", 4, core.A("R2", "a")).D)
	d := w.alg.NewDesc()
	gA, _ := m.InsertExpr(w.join, d.Clone(), []GroupID{l1, l2}, -1)
	dOther := w.alg.NewDesc()
	dOther.Set(w.jp, core.EqAttr(core.A("R1", "a"), core.A("R2", "a")))
	gB, _ := m.InsertExpr(w.join, dOther, []GroupID{l1, l2}, -1)
	if gA == gB {
		t.Fatal("setup: expected distinct groups")
	}
	before := m.NumGroups()
	// Asserting the first expression belongs in gB forces a merge.
	got, changed := m.InsertExpr(w.join, d.Clone(), []GroupID{l1, l2}, gB)
	if !changed {
		t.Error("merge should report a change")
	}
	if m.Find(gA) != m.Find(gB) || m.Find(got) != m.Find(gA) {
		t.Error("groups not merged")
	}
	if m.NumGroups() != before-1 {
		t.Errorf("NumGroups = %d, want %d", m.NumGroups(), before-1)
	}
	if m.Merges() != 1 {
		t.Errorf("Merges = %d", m.Merges())
	}
	m.Rehash()
	if m.Dirty() {
		t.Error("Rehash left memo dirty")
	}
	if err := m.CheckRepaired(); err != nil {
		t.Error(err)
	}
}

// TestMemoCascadingMerge builds two towers over a pair of groups and then
// merges the pair: each level's two parents become identical, so the
// repair of one merge must discover the next one up — from the loser's
// parents alone.
func TestMemoCascadingMerge(t *testing.T) {
	w := newTestWorld()
	m := NewMemo(w.rs)
	leaf := func(name string) GroupID {
		return m.InsertLeaf(name, w.leaf(name, 8, core.A(name, "a")).D)
	}
	l1, l2 := leaf("R1"), leaf("R2")
	d := w.alg.NewDesc()
	dOther := w.alg.NewDesc()
	dOther.Set(w.jp, core.EqAttr(core.A("R1", "a"), core.A("R2", "a")))
	gA, _ := m.InsertExpr(w.join, d.Clone(), []GroupID{l1, l2}, -1)
	gB, _ := m.InsertExpr(w.join, dOther, []GroupID{l1, l2}, -1)
	const levels = 3
	a, b := gA, gB
	for i := 0; i < levels; i++ {
		l := leaf(fmt.Sprintf("S%d", i))
		a, _ = m.InsertExpr(w.join, d.Clone(), []GroupID{a, l}, -1)
		b, _ = m.InsertExpr(w.join, d.Clone(), []GroupID{b, l}, -1)
		if a == b {
			t.Fatal("setup: the towers should be distinct until the merge")
		}
	}
	// An unrelated expression over the same leaves must survive untouched.
	side, _ := m.InsertExpr(w.join, d.Clone(), []GroupID{l2, l1}, -1)
	groups, exprs := m.NumGroups(), m.NumExprs()
	topA, topB := m.Group(a).Exprs[0], m.Group(b).Exprs[0]

	m.InsertExpr(w.join, d.Clone(), []GroupID{l1, l2}, gB)
	if m.Merges() != 1 || !m.Dirty() {
		t.Fatalf("before the repair: merges = %d, dirty = %v; want 1, true", m.Merges(), m.Dirty())
	}
	if m.Find(a) == m.Find(b) {
		t.Fatal("the towers merged before the repair ran")
	}
	m.Rehash()
	if err := m.CheckRepaired(); err != nil {
		t.Fatal(err)
	}
	if m.Merges() != 1+levels {
		t.Errorf("merges = %d, want %d (one per tower level above the first)", m.Merges(), 1+levels)
	}
	if m.Repaired() != levels {
		t.Errorf("repaired %d expressions, want %d: only each loser's one parent was stale", m.Repaired(), levels)
	}
	if m.Find(a) != m.Find(b) {
		t.Error("tower tops not merged")
	}
	// Each merge folds two groups into one and each level loses one of
	// its two now-identical joins; the bottom pair stays two expressions.
	if m.NumGroups() != groups-(1+levels) || m.NumExprs() != exprs-levels {
		t.Errorf("groups/exprs = %d/%d, want %d/%d", m.NumGroups(), m.NumExprs(), groups-(1+levels), exprs-levels)
	}
	if got := m.Group(side).Exprs; len(got) != 1 || got[0].dead {
		t.Errorf("unrelated group disturbed: %v", got)
	}
	// The survivor of a duplicate pair is the older expression.
	if top := m.Group(a).Exprs; len(top) != 1 || top[0] != topA || topA.dead || !topB.dead {
		t.Errorf("top group holds %v; want only the older join (dead: older %v, younger %v)", top, topA.dead, topB.dead)
	}
}

func TestMemoInsertTree(t *testing.T) {
	w := newTestWorld()
	m := NewMemo(w.rs)
	tree := w.chain(8, 4, 2)
	root := m.Insert(tree)
	// 3 leaves + 3 RETs + 2 joins = 8 groups, one expression each.
	if m.NumGroups() != 8 || m.NumExprs() != 8 {
		t.Errorf("groups=%d exprs=%d, want 8/8", m.NumGroups(), m.NumExprs())
	}
	// Reinserting the same tree is a no-op.
	root2 := m.Insert(w.chain(8, 4, 2))
	if root2 != root || m.NumExprs() != 8 {
		t.Error("tree reinsertion should fully dedup")
	}
	if !strings.Contains(m.Dump(), "JOIN") {
		t.Error("Dump missing content")
	}
}

func TestOptimizeTwoWayJoin(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	plan, err := o.Optimize(w.chain(8, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without an order requirement, nested loops with the smaller outer
	// should win: cost = 4 + 4*8 = 36 versus 8 + 8*4 = 40 versus
	// merge-join paths that pay two sorts.
	if got := plan.String(); got != "Nested_loops(File_scan(R2), File_scan(R1))" {
		t.Errorf("plan = %s", got)
	}
	if c := plan.Cost(w.rs.Class); c != 36 {
		t.Errorf("cost = %g, want 36", c)
	}
	// Commutativity doubles the join group's expressions: 2 leaves,
	// 2 RETs, 1 join group with 2 expressions.
	if o.Stats.Groups != 5 || o.Stats.Exprs != 6 {
		t.Errorf("groups=%d exprs=%d, want 5/6", o.Stats.Groups, o.Stats.Exprs)
	}
	if o.Stats.TransFired["join_commute"] == 0 {
		t.Error("commutativity never fired")
	}
}

func TestOptimizeWithOrderRequirement(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	req := w.alg.NewDesc()
	req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
	plan, err := o.Optimize(w.chain(8, 4), req)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.D.Order(w.ord).Satisfies(core.OrderBy(core.A("R1", "a"))) {
		t.Errorf("plan order %v does not satisfy request", plan.D.Order(w.ord))
	}
	// Some sort or merge-join must appear to establish the order.
	algs := strings.Join(plan.Algorithms(), ",")
	if !strings.Contains(algs, "Merge_sort") && !strings.Contains(algs, "Merge_join") {
		t.Errorf("no order-producing algorithm in %s", plan)
	}
	if o.Stats.EnfFired["merge_sort"]+o.Stats.EnfMatched["merge_sort"] == 0 {
		t.Error("enforcer never considered")
	}
}

func TestOptimizeThreeWayAssociativity(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	plan, err := o.Optimize(w.chain(16, 8, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Linear chain R1-R2-R3: equivalence classes are the contiguous
	// ranges {1},{2},{3} (leaves), their RETs, {12},{23},{123}:
	// 3 + 3 + 3 = 9 groups.
	if o.Stats.Groups != 9 {
		t.Errorf("groups = %d, want 9", o.Stats.Groups)
	}
	if o.Stats.TransFired["join_assoc"] == 0 {
		t.Error("associativity never fired")
	}
	if plan == nil || plan.Cost(w.rs.Class) <= 0 {
		t.Error("bad winner")
	}
	// The winner must join all three relations.
	if len(plan.Leaves()) != 3 {
		t.Errorf("winner covers %v", plan.Leaves())
	}
}

func TestOptimizeFourWayGroupCount(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	_, err := o.Optimize(w.chain(16, 8, 4, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Contiguous ranges of a 4-chain: 4(4+1)/2 = 10 join/RET-range
	// groups... precisely: 4 leaves + 4 single-relation RET groups +
	// 6 multi-relation join groups ({12},{23},{34},{123},{234},{1234}).
	if o.Stats.Groups != 14 {
		t.Errorf("groups = %d, want 14", o.Stats.Groups)
	}
}

// exhaustSpace runs chain(8, 4, 2) without a budget under an expression
// guard of three, the search TestOptimizeSpaceLimit,
// TestStatsFlushedOnExhaustion and TestWorklistSpaceErrorDetail each
// check a side of. Reaching the guard degrades like any budget: the run
// must return a plan, not an error.
func exhaustSpace(t *testing.T) (*Optimizer, *core.Expr) {
	t.Helper()
	defer SetMaxExprsGuard(3)()
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	plan, err := o.Optimize(w.chain(8, 4, 2), nil)
	if err != nil {
		t.Fatalf("guarded search failed instead of degrading: %v", err)
	}
	return o, plan
}

func TestOptimizeSpaceLimit(t *testing.T) {
	o, plan := exhaustSpace(t)
	if !o.Stats.Degraded || o.Stats.DegradeCause != CauseMaxExprs {
		t.Errorf("degraded=%v cause=%s, want a max-exprs degradation", o.Stats.Degraded, o.Stats.DegradeCause)
	}
	if !plan.IsPlan() || len(plan.Leaves()) != 3 {
		t.Errorf("degraded plan is not an access plan over 3 relations: %s", plan)
	}
}

func TestOptimizeInfeasibleRequirement(t *testing.T) {
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
	o := NewOptimizer(w.rs)
	req := w.alg.NewDesc()
	req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
	// A single RET can never produce a sort order by itself.
	tree := w.retOf(w.leaf("R1", 8, core.A("R1", "a")))
	if _, err := o.Optimize(tree, req); err != ErrNoPlan {
		t.Errorf("err = %v, want ErrNoPlan", err)
	}
}

func TestWinnerMemoization(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	if _, err := o.Optimize(w.chain(8, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	// Optimizing again against the same memo reuses winners.
	root := o.Memo.Insert(w.chain(8, 4, 2))
	before := o.Stats.Winners
	if _, _, err := o.findBest(root, w.alg.NewDesc()); err != nil {
		t.Fatal(err)
	}
	if o.Stats.Winners != before {
		t.Errorf("winners recomputed: %d -> %d", before, o.Stats.Winners)
	}
}

func TestPlanHelpers(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	plan, err := o.Optimize(w.chain(8, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsPlan() {
		t.Error("the search should return an access plan")
	}
	if plan.Size() != 5 {
		t.Errorf("Size = %d", plan.Size())
	}
	algs := plan.Algorithms()
	if len(algs) != 2 {
		t.Errorf("Algorithms = %v", algs)
	}
	if !strings.Contains(plan.Format(), "Nested_loops") {
		t.Error("Format missing algorithm")
	}
	if (&core.Expr{File: "R1"}).Cost(w.rs.Class) != 0 {
		t.Error("leaf cost should be 0")
	}
}

func TestStatsReporting(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	if _, err := o.Optimize(w.chain(8, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	s := o.Stats
	if s.DistinctTransMatched() != 2 {
		t.Errorf("distinct trans matched = %d, want 2", s.DistinctTransMatched())
	}
	if s.DistinctImplMatched() != 3 {
		t.Errorf("distinct impl matched = %d, want 3", s.DistinctImplMatched())
	}
	if s.DistinctImplFired() < 2 {
		t.Errorf("distinct impl fired = %d", s.DistinctImplFired())
	}
	if s.Winners == 0 || s.CostedPlans == 0 {
		t.Error("no winners/costed plans recorded")
	}
	out := s.String()
	for _, want := range []string{"groups=", "join_commute", "trans matched=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String missing %q in %q", want, out)
		}
	}
}

func TestBranchAndBoundPrunes(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	// With a tiny R1, the best 3-way plan joins R1's side first; the
	// alternative that optimizes the expensive {R2,R3} sub-join as an
	// input exceeds the incumbent on input costs alone and is pruned.
	if _, err := o.Optimize(w.chain(1, 1024, 1024), nil); err != nil {
		t.Fatal(err)
	}
	if o.Stats.Pruned == 0 {
		t.Error("branch-and-bound never pruned on a 3-way join")
	}
}

func TestWinnersPerPropertyVector(t *testing.T) {
	// Distinct physical-property requirements get distinct winners on
	// the same group.
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	if _, err := o.Optimize(w.chain(64, 8), nil); err != nil {
		t.Fatal(err)
	}
	root := o.Memo.Insert(w.chain(64, 8))
	unordered, uCost, err := o.findBest(root, w.alg.NewDesc())
	if err != nil {
		t.Fatal(err)
	}
	req := w.alg.NewDesc()
	req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
	ordered, oCost, err := o.findBest(root, req)
	if err != nil {
		t.Fatal(err)
	}
	if ordered == nil || unordered == nil {
		t.Fatal("missing winners")
	}
	if !(uCost <= oCost) {
		t.Errorf("ordered winner cheaper than unordered: %g vs %g", oCost, uCost)
	}
	if !ordered.D.Order(w.ord).Satisfies(core.OrderBy(core.A("R1", "a"))) {
		t.Errorf("ordered winner has order %v", ordered.D.Order(w.ord))
	}
}

func TestMergeReqOverridesPhysical(t *testing.T) {
	w := newTestWorld()
	d := w.alg.NewDesc()
	d.Set(w.ord, core.DontCareOrder)
	d.SetFloat(w.nr, 7)
	req := w.alg.NewDesc()
	req.Set(w.ord, core.OrderBy(core.A("R", "x")))
	into := w.alg.NewDesc()
	if mergeReq(d, w.alg.NewDesc(), []core.PropID{w.ord}, into) != d {
		t.Error("a requirement setting nothing did not return the descriptor itself")
	}
	out := mergeReq(d, req, []core.PropID{w.ord}, into)
	if out != into {
		t.Error("the merged descriptor is not the one supplied")
	}
	if !out.Order(w.ord).Equal(core.OrderBy(core.A("R", "x"))) {
		t.Error("requirement not merged")
	}
	if out.Float(w.nr) != 7 {
		t.Error("non-physical property clobbered")
	}
	if d.Order(w.ord).Equal(core.OrderBy(core.A("R", "x"))) {
		t.Error("source descriptor mutated")
	}
}

func TestEnforcerNotAppliedWithoutRequirement(t *testing.T) {
	// With merge join removed, nothing requests an order, so the
	// enforcer must never be considered.
	w := newTestWorld()
	var impls []*ImplRule
	for _, r := range w.rs.Impls {
		if r.Name != "join_merge_join" {
			impls = append(impls, r)
		}
	}
	w.rs.Impls = impls
	o := NewOptimizer(w.rs)
	if _, err := o.Optimize(w.chain(8, 4), nil); err != nil {
		t.Fatal(err)
	}
	if o.Stats.EnfFired["merge_sort"] != 0 || o.Stats.EnfMatched["merge_sort"] != 0 {
		t.Error("enforcer considered without an order requirement")
	}
}

func TestOptimizeLeafDirectly(t *testing.T) {
	// A bare stored file satisfies an empty requirement at zero cost.
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	plan, err := o.Optimize(w.leaf("R1", 8, core.A("R1", "a")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsLeaf() || plan.Cost(w.rs.Class) != 0 {
		t.Errorf("leaf plan = %v cost %g", plan, plan.Cost(w.rs.Class))
	}
}

func TestTraceEvents(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	var got []Event
	o.OnEvent = func(e Event) { got = append(got, e) }
	req := w.alg.NewDesc()
	req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
	if _, err := o.Optimize(w.chain(8, 4), req); err != nil {
		t.Fatal(err)
	}
	kinds := map[EventKind]int{}
	for _, e := range got {
		kinds[e.Kind]++
	}
	for _, k := range []EventKind{EventTransFired, EventImplCosted, EventImplRejected, EventEnforcerApplied, EventWinner} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in trace", k)
		}
	}
	// Event strings render every component.
	e := Event{Kind: EventImplCosted, Rule: "r", Group: 3, Detail: "Alg", Cost: 7}
	if s := e.String(); !strings.Contains(s, "costed") || !strings.Contains(s, "group 3") ||
		!strings.Contains(s, "(cost 7.0)") {
		t.Errorf("Event.String = %q", s)
	}
	// reqString renders set and empty vectors.
	if s := reqString(req, w.rs.Class.Phys); !strings.Contains(s, "tuple_order=<R1.a>") {
		t.Errorf("reqString = %q", s)
	}
	if s := reqString(w.alg.NewDesc(), w.rs.Class.Phys); s != "(none)" {
		t.Errorf("empty reqString = %q", s)
	}
}

func TestExplain(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(w.rs)
	req := w.alg.NewDesc()
	req.Set(w.ord, core.OrderBy(core.A("R1", "a")))
	plan, err := o.Optimize(w.chain(8, 4), req)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain(w.rs.Class)
	for _, want := range []string{"cost=", "stored file", "tuple_order=<R1.a>", "File_scan"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}
