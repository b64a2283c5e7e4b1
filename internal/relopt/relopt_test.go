package relopt

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
	"prairie/internal/volcano"
)

// testCatalog returns a small catalog with fixed power-of-two stats.
func testCatalog(indexed bool) *catalog.Catalog {
	cat := catalog.New()
	cards := []float64{1024, 128, 256, 512, 64, 2048, 32, 4096}
	for i, card := range cards {
		cl := &catalog.Class{
			Name: catalog.ClassName(i + 1), Card: card, TupleSize: 64,
			Attrs: []catalog.Attribute{
				{Name: "a", Distinct: card / 2},
				{Name: "b", Distinct: card / 4},
				{Name: "c", Distinct: card},
			},
		}
		if indexed {
			cl.Indexes = []string{"b"}
		}
		cat.Add(cl)
	}
	return cat
}

func rels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = catalog.ClassName(i + 1)
	}
	return out
}

func prairieOptimizer(t *testing.T, cat *catalog.Catalog) (*Opt, *volcano.RuleSet, *p2v.Report) {
	t.Helper()
	o := New(cat)
	vrs, rep, err := p2v.Translate(o.PrairieRules())
	if err != nil {
		t.Fatalf("p2v.Translate: %v", err)
	}
	return o, vrs, rep
}

func TestPrairieRuleSetValid(t *testing.T) {
	o := New(testCatalog(false))
	rs := o.PrairieRules()
	if len(rs.TRules) != 3 || len(rs.IRules) != 6 {
		t.Errorf("rule counts = %d T, %d I; want 3 T, 6 I", len(rs.TRules), len(rs.IRules))
	}
	for _, r := range rs.TRules {
		if !strings.HasPrefix(r.Origin, "spec:") {
			t.Errorf("T-rule %s origin = %q, want a spec position", r.Name, r.Origin)
		}
	}
}

// TestHelperImplsTotal checks that every helper the specification
// declares has a default-values case here, and that there are no extras:
// a rule may read an unset property, which reads as its kind's default.
func TestHelperImplsTotal(t *testing.T) {
	o := New(testCatalog(false))
	spec, err := prairielang.Parse(Spec)
	if err != nil {
		t.Fatal(err)
	}
	impls := o.HelperImpls()
	none, dc, tru := core.Attrs(nil), core.DontCareOrder, core.TruePred
	defaults := map[string][]core.Value{
		"union":             {none, none},
		"cardinality":       {core.Float(0), core.Float(0), tru},
		"is_associative":    {tru, tru, none, none, none},
		"split_within":      {tru, tru, none, none},
		"split_rest":        {tru, tru, none, none},
		"is_equi_join":      {tru, none},
		"left_order":        {tru, none},
		"right_order":       {tru, none},
		"has_index":         {none},
		"index_order":       {none, dc, tru},
		"index_usable":      {none, dc, tru},
		"order_within":      {dc, none},
		"file_scan_cost":    {core.Float(0)},
		"index_scan_cost":   {core.Float(0), core.Float(0), core.Bool(false)},
		"nested_loops_cost": {core.Cost(0), core.Float(0), core.Cost(0)},
		"merge_join_cost":   {core.Cost(0), core.Cost(0), core.Float(0), core.Float(0)},
		"merge_sort_cost":   {core.Cost(0), core.Float(0)},
	}
	for _, h := range spec.Helpers {
		name := h.Name
		args, ok := defaults[name]
		if !ok {
			t.Errorf("helper %s missing from totality test", name)
			continue
		}
		if _, err := impls[name](args); err != nil {
			t.Errorf("helper %s failed on defaults: %v", name, err)
		}
	}
	if len(defaults) != len(spec.Helpers) || len(impls) != len(defaults) {
		t.Errorf("%d default cases, %d declared helpers, %d implementations",
			len(defaults), len(spec.Helpers), len(impls))
	}
}

func TestVolcanoRuleSetValid(t *testing.T) {
	o := New(testCatalog(false))
	vrs := o.VolcanoRules()
	if errs := vrs.Validate(); len(errs) != 0 {
		t.Fatalf("hand-coded Volcano rule set invalid: %v", errs)
	}
	if len(vrs.Trans) != 2 || len(vrs.Impls) != 4 || len(vrs.Enforcers) != 1 {
		t.Errorf("counts = %d/%d/%d, want 2/4/1",
			len(vrs.Trans), len(vrs.Impls), len(vrs.Enforcers))
	}
}

// TestP2VMergeArithmetic checks the rule-count arithmetic of §3.3: the
// Prairie specification has one extra T-rule (enforcer introduction) and
// two extra I-rules (the Null rule and the enforcer's rule) compared to
// the generated Volcano rule set.
func TestP2VMergeArithmetic(t *testing.T) {
	_, vrs, rep := prairieOptimizer(t, testCatalog(false))
	if rep.TRulesIn != 3 || rep.TransOut != 2 {
		t.Errorf("T-rules %d -> trans %d, want 3 -> 2", rep.TRulesIn, rep.TransOut)
	}
	if rep.IRulesIn != 6 || rep.ImplsOut != 4 || rep.EnforcersOut != 1 {
		t.Errorf("I-rules %d -> impl %d + enf %d, want 6 -> 4 + 1",
			rep.IRulesIn, rep.ImplsOut, rep.EnforcersOut)
	}
	if rep.Aliases["JOPR"] != "JOIN" {
		t.Errorf("aliases = %v, want JOPR => JOIN", rep.Aliases)
	}
	if len(rep.EnforcerOperators) != 1 || rep.EnforcerOperators[0] != "SORT" {
		t.Errorf("enforcer operators = %v", rep.EnforcerOperators)
	}
	if got := rep.EnforcedProps["SORT"]; len(got) != 1 || got[0] != "tuple_order" {
		t.Errorf("enforced props = %v", got)
	}
	if len(vrs.Trans) != 2 || len(vrs.Impls) != 4 || len(vrs.Enforcers) != 1 {
		t.Errorf("generated counts = %d/%d/%d", len(vrs.Trans), len(vrs.Impls), len(vrs.Enforcers))
	}
	// The generated counts equal the hand-coded ones, as in §4.2.
	hand := New(testCatalog(false)).VolcanoRules()
	if len(vrs.Trans) != len(hand.Trans) || len(vrs.Impls) != len(hand.Impls) ||
		len(vrs.Enforcers) != len(hand.Enforcers) {
		t.Error("generated rule set differs in size from the hand-coded one")
	}
}

// TestRuleFlagsAgree: P2V derives join_commute an involution and
// join_assoc none, as the hand-coded rules declare; nothing normalizes.
// It derives that join_commute's right side keeps its left side's
// identity, D4 <- D3, and that join_assoc's keeps none, as the
// hand-coded rules declare too.
func TestRuleFlagsAgree(t *testing.T) {
	_, vrs, _ := prairieOptimizer(t, testCatalog(false))
	hand := New(testCatalog(false)).VolcanoRules()
	for i, r := range vrs.Trans {
		h := hand.Trans[i]
		if r.Name != h.Name || r.Involution != h.Involution || r.Normalize || h.Normalize || r.Involution != (r.Name == "join_commute") {
			t.Errorf("%s: P2V gives normalize=%v involution=%v; hand-coded %s: %v, %v",
				r.Name, r.Normalize, r.Involution, h.Name, h.Normalize, h.Involution)
		}
		want := []core.Keep(nil)
		if r.Name == "join_commute" {
			want = []core.Keep{{RHS: "D4", LHS: "D3"}}
		}
		if !slices.Equal(r.Keeps, want) || !slices.Equal(h.Keeps, want) {
			t.Errorf("%s: P2V derives keeps %v, the hand-coded rule declares %v; want %v", r.Name, r.Keeps, h.Keeps, want)
		}
	}
}

// TestP2VClassification checks the automatic property classification
// (§3.1): cost by kind, tuple_order physical (assigned on input stream
// descriptors in pre-opt sections), all else arguments.
func TestP2VClassification(t *testing.T) {
	o, vrs, rep := prairieOptimizer(t, testCatalog(false))
	if rep.CostProp != "cost" {
		t.Errorf("cost prop = %q", rep.CostProp)
	}
	if len(rep.PhysProps) != 1 || rep.PhysProps[0] != "tuple_order" {
		t.Errorf("phys props = %v", rep.PhysProps)
	}
	for _, arg := range rep.ArgProps {
		if arg == "cost" || arg == "tuple_order" {
			t.Errorf("%s classified as argument", arg)
		}
	}
	if !vrs.Class.IsPhys(o.Ord) || vrs.Class.IsArg(o.Ord) {
		t.Error("generated classification wrong for tuple_order")
	}
	out := rep.String()
	for _, want := range []string{"enforcer-operator SORT", "alias: JOPR => JOIN", "3 T-rules, 6 I-rules"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// optimizeBoth runs the same query through the Prairie-generated and the
// hand-coded optimizer and returns both plans.
func optimizeBoth(t *testing.T, indexed bool, q QuerySpec) (p, v *core.Expr, po, vo *volcano.Optimizer) {
	t.Helper()
	cat := testCatalog(indexed)

	op, pvrs, _ := prairieOptimizer(t, cat)
	po = volcano.NewOptimizer(pvrs)
	tree, err := op.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err = po.Optimize(tree, op.Requirement(q))
	if err != nil {
		t.Fatalf("prairie optimize: %v", err)
	}

	ov := New(cat)
	vo = volcano.NewOptimizer(ov.VolcanoRules())
	tree2, err := ov.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	v, err = vo.Optimize(tree2, ov.Requirement(q))
	if err != nil {
		t.Fatalf("volcano optimize: %v", err)
	}
	return p, v, po, vo
}

func TestPrairieMatchesVolcanoPlans(t *testing.T) {
	for _, tc := range []struct {
		name    string
		indexed bool
		q       QuerySpec
	}{
		{"2way", false, QuerySpec{Relations: rels(2)}},
		{"3way", false, QuerySpec{Relations: rels(3)}},
		{"4way", false, QuerySpec{Relations: rels(4)}},
		{"3way_indexed", true, QuerySpec{Relations: rels(3)}},
		{"3way_select", false, QuerySpec{Relations: rels(3), Select: true}},
		{"3way_select_indexed", true, QuerySpec{Relations: rels(3), Select: true}},
		{"3way_sorted", false, QuerySpec{Relations: rels(3), OrderBy: core.A("C1", "a")}},
		{"2way_sorted_indexed", true, QuerySpec{Relations: rels(2), OrderBy: core.A("C1", "b")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, v, po, vo := optimizeBoth(t, tc.indexed, tc.q)
			pc := p.Cost(po.RS.Class)
			vc := v.Cost(vo.RS.Class)
			if math.Abs(pc-vc) > 1e-9*math.Max(pc, vc) {
				t.Errorf("winner costs differ: prairie=%g volcano=%g\nprairie: %s\nvolcano: %s",
					pc, vc, p, v)
			}
			// The search spaces must be identical: same number of
			// equivalence classes (the paper's Figure 14 notes they are
			// the same in Prairie and Volcano).
			if po.Stats.Groups != vo.Stats.Groups {
				t.Errorf("groups differ: prairie=%d volcano=%d", po.Stats.Groups, vo.Stats.Groups)
			}
			if po.Stats.Exprs != vo.Stats.Exprs {
				t.Errorf("exprs differ: prairie=%d volcano=%d", po.Stats.Exprs, vo.Stats.Exprs)
			}
		})
	}
}

func TestOrderRequirementHonored(t *testing.T) {
	q := QuerySpec{Relations: rels(3), OrderBy: core.A("C2", "a")}
	p, v, po, _ := optimizeBoth(t, false, q)
	want := core.OrderBy(core.A("C2", "a"))
	if !p.D.Order(po.RS.Class.Phys[0]).Satisfies(want) {
		t.Errorf("prairie plan order = %v", p.D.Order(po.RS.Class.Phys[0]))
	}
	if !v.D.Order(po.RS.Class.Phys[0]).Satisfies(want) {
		t.Errorf("volcano plan order = %v", v.D.Order(po.RS.Class.Phys[0]))
	}
}

func TestIndexScanChosenForSelectiveQuery(t *testing.T) {
	// With an index on the selection attribute, the optimizer should
	// prefer Index_scan for at least one retrieval.
	q := QuerySpec{Relations: rels(3), Select: true}
	p, v, _, _ := optimizeBoth(t, true, q)
	for name, plan := range map[string]*core.Expr{"prairie": p, "volcano": v} {
		if !strings.Contains(strings.Join(plan.Algorithms(), ","), "Index_scan") {
			t.Errorf("%s plan uses no index scan: %s", name, plan)
		}
	}
}

func TestNoIndexNoIndexScan(t *testing.T) {
	q := QuerySpec{Relations: rels(2), Select: true}
	p, _, _, _ := optimizeBoth(t, false, q)
	if strings.Contains(strings.Join(p.Algorithms(), ","), "Index_scan") {
		t.Errorf("index scan chosen without an index: %s", p)
	}
}

func TestMergeJoinViaEnforcedSort(t *testing.T) {
	// Force a case where merge join wins: request the join attribute's
	// order at the root, making sorted inputs pay for themselves.
	cat := testCatalog(false)
	op, pvrs, _ := prairieOptimizer(t, cat)
	q := QuerySpec{Relations: rels(2), OrderBy: core.A("C1", "a")}
	tree, _ := op.Build(q)
	o := volcano.NewOptimizer(pvrs)
	plan, err := o.Optimize(tree, op.Requirement(q))
	if err != nil {
		t.Fatal(err)
	}
	algs := strings.Join(plan.Algorithms(), ",")
	if !strings.Contains(algs, "Merge_join") && !strings.Contains(algs, "Merge_sort") {
		t.Errorf("no sorting machinery in plan %s", plan)
	}
}

func TestGroupCountsLinearChain(t *testing.T) {
	// Linear N-chain: leaves N + RET groups N + contiguous join ranges
	// N(N-1)/2.
	for n := 2; n <= 5; n++ {
		cat := testCatalog(false)
		op, pvrs, _ := prairieOptimizer(t, cat)
		tree, _ := op.Build(QuerySpec{Relations: rels(n)})
		o := volcano.NewOptimizer(pvrs)
		if _, err := o.Optimize(tree, nil); err != nil {
			t.Fatal(err)
		}
		want := 2*n + n*(n-1)/2
		if o.Stats.Groups != want {
			t.Errorf("n=%d: groups = %d, want %d", n, o.Stats.Groups, want)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	o := New(testCatalog(false))
	if _, err := o.Build(QuerySpec{}); err == nil {
		t.Error("empty query accepted")
	}
	tree, err := o.Build(QuerySpec{Relations: rels(1)})
	if err != nil || tree.String() != "RET(C1)" {
		t.Errorf("1-relation query = %v, %v", tree, err)
	}
	req := o.Requirement(QuerySpec{Relations: rels(1)})
	if req.Has(o.Ord) {
		t.Error("requirement should be empty without OrderBy")
	}
}

func TestSortNodeInQueryTree(t *testing.T) {
	// An explicit SORT node in the initial tree (the paper's Figure 1)
	// is stripped by PrepareQuery into a physical-property requirement
	// (SORT is an enforcer-operator and does not exist in the generated
	// Volcano space).
	cat := testCatalog(false)
	op, pvrs, rep := prairieOptimizer(t, cat)
	q := QuerySpec{Relations: rels(2)}
	inner, _ := op.Build(q)
	tree := op.Sort(inner, core.A("C1", "a"))
	tree2, req, err := rep.PrepareQuery(tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Op != op.JOIN {
		t.Errorf("SORT not stripped: root is %v", tree2.Op)
	}
	if !req.Order(op.Ord).Equal(core.OrderBy(core.A("C1", "a"))) {
		t.Errorf("requirement = %v", req.Order(op.Ord))
	}
	o := volcano.NewOptimizer(pvrs)
	plan, err := o.Optimize(tree2, req)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.D.Order(op.Ord).Satisfies(core.OrderBy(core.A("C1", "a"))) {
		t.Errorf("sorted tree produced order %v", plan.D.Order(op.Ord))
	}
}

func TestPrepareQueryRejectsInteriorSort(t *testing.T) {
	cat := testCatalog(false)
	op, _, rep := prairieOptimizer(t, cat)
	left := op.Sort(op.Ret(op.Leaf("C1"), core.TruePred), core.A("C1", "a"))
	right := op.Ret(op.Leaf("C2"), core.TruePred)
	tree := op.Join(left, right, core.EqAttr(core.A("C1", "a"), core.A("C2", "a")))
	if _, _, err := rep.PrepareQuery(tree, nil); err == nil {
		t.Error("interior SORT accepted")
	}
}

func TestHelperFunctions(t *testing.T) {
	attrs := core.Attrs{core.A("C1", "a"), core.A("C2", "a"), core.A("C3", "a")}
	impls := New(testCatalog(false)).HelperImpls()
	call := func(name string, args ...core.Value) core.Value {
		v, err := impls[name](args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	lower := core.EqAttr(core.A("C1", "a"), core.A("C2", "a"))
	upper := core.EqAttr(core.A("C2", "a"), core.A("C3", "a"))
	left, mid, right := core.Attrs{attrs[0]}, core.Attrs{attrs[1]}, core.Attrs{attrs[2]}
	if call("is_associative", lower, upper, left, mid, right) != core.Bool(true) {
		t.Fatal("linear chain should be associative")
	}
	if inner := call("split_within", lower, upper, mid, right); inner != upper {
		t.Errorf("inner = %v", inner)
	}
	if outer := call("split_rest", lower, upper, mid, right); outer != lower {
		t.Errorf("outer = %v", outer)
	}
	// Cross product: C1 joins C2 only; regrouping with C2 and C3
	// unconnected must fail.
	if call("is_associative", lower, core.TruePred, left, mid, right) != core.Bool(false) {
		t.Error("cross-product rewrite accepted")
	}

	l, r, ok := orientEqui(core.EqAttr(core.A("C2", "a"), core.A("C1", "a")), core.Attrs{attrs[0]})
	if !ok || l != core.A("C1", "a") || r != core.A("C2", "a") {
		t.Errorf("orientEqui = %v %v %v", l, r, ok)
	}
	if _, _, ok := orientEqui(core.TruePred, core.Attrs{attrs[0]}); ok {
		t.Error("non-equi predicate oriented")
	}
}

// TestJoinAssocHelpersMatchTheConjunction holds join_assoc's helpers,
// which take its two predicates as they stand, to what the rule computed
// from their conjunction before: split_within and split_rest to
// core.And + SplitBy by the union of their two attribute sets, conjunct
// order included, and is_associative to the
// attribute-list formula the relational optimizer used — split the
// conjunction by m ∪ r, and intersect each half's attributes with the
// sets it must reach — over every pair of a dozen predicate shapes and
// every assignment of five attribute sets.
func TestJoinAssocHelpersMatchTheConjunction(t *testing.T) {
	impls := New(testCatalog(false)).HelperImpls()
	at := func(rels ...string) core.Attrs {
		var out core.Attrs
		for _, rel := range rels {
			out = append(out, core.A(rel, "a"), core.A(rel, "b"))
		}
		return out
	}
	eq := func(r1, r2 string) *core.Pred { return core.EqAttr(core.A(r1, "a"), core.A(r2, "a")) }
	sel := func(rel string) *core.Pred { return core.EqConst(core.A(rel, "b"), core.Int(1)) }
	preds := []*core.Pred{
		core.TruePred, eq("C1", "C2"), eq("C2", "C3"), sel("C2"),
		core.And(eq("C2", "C3"), eq("C1", "C2")), core.And(sel("C3"), eq("C1", "C3"), eq("C2", "C3")),
		core.And(eq("C1", "C2"), sel("C1")), core.Or(eq("C1", "C2"), sel("C3")), core.Not(eq("C2", "C3")),
		{Op: core.PredAnd, Kids: []*core.Pred{core.TruePred, eq("C2", "C3")}},
	}
	sets := []core.Attrs{nil, at("C1"), at("C2"), at("C3"), at("C2", "C3"), at("C3", "C1", "C2")}
	call := func(name string, args ...core.Value) core.Value {
		v, err := impls[name](args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	for _, lower := range preds {
		for _, upper := range preds {
			all := core.And(lower, upper)
			for _, m := range sets {
				for _, r := range sets {
					within, rest := all.SplitBy(m.Union(r))
					gw, gr := call("split_within", lower, upper, m, r), call("split_rest", lower, upper, m, r)
					if !gw.Equal(within) || !gr.Equal(rest) || gw.String() != within.String() || gr.String() != rest.String() {
						t.Fatalf("split_within/split_rest(%v, %v, %v, %v) = %v | %v, the conjunction splits %v | %v", lower, upper, m, r, gw, gr, within, rest)
					}
				}
			}
			for _, l := range sets {
				for _, m := range sets {
					for _, r := range sets {
						inner, outer := all.SplitBy(m.Union(r))
						want := len(inner.Attrs().Intersect(m)) > 0 && len(inner.Attrs().Intersect(r)) > 0 &&
							len(outer.Attrs().Intersect(l)) > 0
						if got := call("is_associative", lower, upper, l, m, r); got != core.Bool(want) {
							t.Fatalf("is_associative(%v, %v, %v, %v, %v) = %v, the attribute-list formula %v", lower, upper, l, m, r, got, want)
						}
					}
				}
			}
		}
	}
}

func TestCostModel(t *testing.T) {
	if nestedLoopsCost(10, 5, 3) != 25 {
		t.Error("nestedLoopsCost")
	}
	if mergeJoinCost(1, 2, 3, 4) != 10 {
		t.Error("mergeJoinCost")
	}
}

// TestPrairieVolcanoEquivalenceQuick is a property test: for random
// power-of-two catalog statistics, both specification paths must agree
// on winner cost and search-space size.
func TestPrairieVolcanoEquivalenceQuick(t *testing.T) {
	check := func(e1, e2, e3 uint8, withSel, withIdx bool) bool {
		cat := catalog.New()
		exps := []uint8{e1, e2, e3}
		for i, e := range exps {
			card := float64(int64(1) << (4 + e%7)) // 16..1024
			cl := &catalog.Class{
				Name: catalog.ClassName(i + 1), Card: card, TupleSize: 64,
				Attrs: []catalog.Attribute{
					{Name: "a", Distinct: card / 2},
					{Name: "b", Distinct: card / 4},
				},
			}
			if withIdx {
				cl.Indexes = []string{"b"}
			}
			cat.Add(cl)
		}
		q := QuerySpec{Relations: []string{"C1", "C2", "C3"}, Select: withSel}

		po := New(cat)
		pvrs, rep, err := p2v.Translate(po.PrairieRules())
		if err != nil {
			t.Fatal(err)
		}
		ptree, err := po.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		ptree, preq, err := rep.PrepareQuery(ptree, po.Requirement(q))
		if err != nil {
			t.Fatal(err)
		}
		popt := volcano.NewOptimizer(pvrs)
		pplan, err := popt.Optimize(ptree, preq)
		if err != nil {
			t.Fatal(err)
		}

		vo := New(cat)
		vtree, err := vo.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		vopt := volcano.NewOptimizer(vo.VolcanoRules())
		vplan, err := vopt.Optimize(vtree, vo.Requirement(q))
		if err != nil {
			t.Fatal(err)
		}
		pc, vc := pplan.Cost(pvrs.Class), vplan.Cost(vopt.RS.Class)
		return math.Abs(pc-vc) <= 1e-9*math.Max(pc, vc) &&
			popt.Stats.Groups == vopt.Stats.Groups &&
			popt.Stats.Exprs == vopt.Stats.Exprs
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestHashJoinExtensionModule exercises the modular composition the
// paper's conclusion proposes: the base Prairie specification compiled
// with an extension module contributing Hash_join. P2V generates one
// optimizer, and the new algorithm wins where it is cheapest.
func TestHashJoinExtensionModule(t *testing.T) {
	cat := testCatalog(false)
	o := New(cat)
	merged, err := prairielang.ParseAndCompileAll([]string{Spec, HashJoinSpec}, o.HelperImpls())
	if err != nil {
		t.Fatal(err)
	}
	o.rebind(merged.Algebra)
	vrs, rep, err := p2v.Translate(merged)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ImplsOut != 5 {
		t.Errorf("impl rules = %d, want 5 (base 4 + extension)", rep.ImplsOut)
	}
	q := QuerySpec{Relations: rels(2)}
	tree, err := o.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := volcano.NewOptimizer(vrs)
	plan, err := opt.Optimize(tree, o.Requirement(q))
	if err != nil {
		t.Fatal(err)
	}
	// Hash join (c1+c2+n1+2*n2) beats nested loops (c1+n1*c2) for these
	// cardinalities, and no order was requested.
	if !strings.Contains(strings.Join(plan.Algorithms(), ","), "Hash_join") {
		t.Errorf("extension algorithm not chosen: %s", plan)
	}
	// With an order requirement, the merged optimizer still works and
	// satisfies it (hash join alone cannot).
	q2 := QuerySpec{Relations: rels(2), OrderBy: core.A("C1", "a")}
	tree2, _ := o.Build(q2)
	plan2, err := volcano.NewOptimizer(vrs).Optimize(tree2, o.Requirement(q2))
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.D.Order(o.Ord).Satisfies(core.OrderBy(core.A("C1", "a"))) {
		t.Errorf("order requirement lost: %s", plan2)
	}
}
