package oodb

import (
	"sort"
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/prairielang"
)

func TestHelperImplsTotal(t *testing.T) {
	o := New(catalog.Generate(catalog.DefaultGen(2, 101, true)))
	impls := o.HelperImpls()
	// Every helper must tolerate default values: a rule may read an unset
	// property, which reads as its kind's default.
	defaults := map[string][]core.Value{
		"union":              {core.Attrs(nil), core.Attrs(nil)},
		"contains_all":       {core.Attrs(nil), core.Attrs(nil)},
		"attrs_eq":           {core.Attrs(nil), core.Attrs(nil)},
		"and_pred":           {core.TruePred, core.TruePred},
		"split_within":       {core.TruePred, core.TruePred, core.Attrs(nil)},
		"split_rest":         {core.TruePred, core.TruePred, core.Attrs(nil)},
		"refers_only":        {core.TruePred, core.Attrs(nil)},
		"refers_only_either": {core.TruePred, core.Attrs(nil), core.Attrs(nil)},
		"conj_count":         {core.TruePred},
		"first_conj":         {core.TruePred},
		"rest_conj":          {core.TruePred},
		"is_assoc":           {core.TruePred, core.TruePred, core.Attrs(nil), core.Attrs(nil), core.Attrs(nil)},
		"join_card":          {core.Float(0), core.Float(0), core.TruePred},
		"sel_card":           {core.Float(0), core.TruePred},
		"is_ref_join":        {core.TruePred, core.Attrs(nil), core.Attrs(nil)},
		"ref_of":             {core.TruePred, core.Attrs(nil)},
		"is_true_pred":       {core.TruePred},
		"mat_attrs":          {core.Attrs(nil)},
		"mat_card":           {core.Attrs(nil)},
		"mat_size":           {core.Attrs(nil)},
		"unnest_card":        {core.Float(0), core.Attrs(nil)},
		"has_index":          {core.Attrs(nil)},
		"has_probe_index":    {core.Attrs(nil), core.TruePred},
		"probe_order":        {core.Attrs(nil), core.TruePred},
		"sweep_order":        {core.Attrs(nil), core.DontCareOrder},
		"nlogn":              {core.Float(0)},
		"order_within":       {core.DontCareOrder, core.Attrs(nil)},
	}
	spec, err := prairielang.Parse(Spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range spec.Helpers {
		args, ok := defaults[h.Name]
		if !ok {
			t.Errorf("helper %s missing from totality test", h.Name)
			continue
		}
		if _, err := impls[h.Name](args); err != nil {
			t.Errorf("helper %s failed on defaults: %v", h.Name, err)
		}
	}
	if len(defaults) != len(spec.Helpers) || len(impls) != len(defaults) {
		t.Errorf("%d default cases, %d declared helpers, %d implementations",
			len(defaults), len(spec.Helpers), len(impls))
	}
}

func TestCostFunctions(t *testing.T) {
	if filterCost(10, 5) != 15 || projectCost(10, 5) != 15 {
		t.Error("filter/project cost")
	}
	if hashJoinCost(1, 2, 3, 4) != 1+2+3+8 {
		t.Error("hashJoinCost")
	}
	if pointerJoinCost(1, 4, 16) != 1+8+16 {
		t.Error("pointerJoinCost")
	}
	if materializeCost(1, 4) != 17 {
		t.Error("materializeCost")
	}
	if flattenCost(1, 8) != 9 {
		t.Error("flattenCost")
	}
	// The Materialize / Pointer_join crossover: cheap chase for small
	// inputs, batched join for large ones.
	if !(materializeCost(0, 2) < pointerJoinCost(0, 2, 1024)) {
		t.Error("Materialize should win for tiny inputs")
	}
	if !(pointerJoinCost(0, 4096, 64) < materializeCost(0, 4096)) {
		t.Error("Pointer_join should win for large inputs")
	}
}

func TestCanonAndHelpers(t *testing.T) {
	p1 := core.EqConst(core.A("C2", "b"), core.Int(2))
	p2 := core.EqConst(core.A("C1", "b"), core.Int(1))
	c := canonAnd(p1, p2)
	c2 := canonAnd(p2, p1)
	if !c.Equal(c2) {
		t.Error("canonAnd is not order-insensitive")
	}
	if !firstConj(c).Equal(firstConj(c2)) {
		t.Error("firstConj unstable")
	}
	if len(restConj(c).Conjuncts()) != 1 {
		t.Errorf("restConj = %v", restConj(c))
	}
	if !firstConj(core.TruePred).IsTrue() || !restConj(core.TruePred).IsTrue() {
		t.Error("degenerate conjunct helpers")
	}
	if !restConj(p1).IsTrue() {
		t.Error("restConj of single term should be TRUE")
	}
	if canonAnd(p1) != p1 || canonAnd(core.TruePred, p1) != p1 {
		t.Error("canonAnd of one conjunct should return it as is")
	}
	// The canonical order is that of the conjuncts' String() renderings —
	// plan text depends on it — whatever order and nesting they arrive in.
	ps := []*core.Pred{
		core.EqAttr(core.A("C3", "r"), core.A("C1", "id")),
		p1,
		core.EqConst(core.A("C10", "b"), core.Int(7)),
		p2,
		core.EqAttr(core.A("C1", "r"), core.A("C2", "id")),
		p1, // a repeated conjunct stays repeated
	}
	want := make([]string, len(ps))
	for i, p := range ps {
		want[i] = p.String()
	}
	sort.Strings(want)
	nested := core.And(ps[0], ps[3], ps[1])
	for _, got := range []*core.Pred{
		canonAnd(ps...),
		canonAnd(core.And(ps[4], ps[2]), ps[5], nested),
		canonAnd(nested, ps[2], ps[4], ps[5]),
	} {
		conj := got.Conjuncts()
		if len(conj) != len(want) {
			t.Fatalf("canonAnd = %v, want %d conjuncts", got, len(want))
		}
		for i, c := range conj {
			if c.String() != want[i] {
				t.Errorf("conjunct %d = %s, want %s", i, c, want[i])
			}
		}
	}
	if k := nested.Conjuncts(); k[0] != ps[0] || k[1] != ps[3] || k[2] != ps[1] {
		t.Error("canonAnd reordered its argument")
	}
	// splitHalf of two predicates is either side of splitPred of their
	// canonical conjunction, rendering included, and builds the
	// conjunction only for a side of two conjuncts or more.
	two := []*core.Pred{core.TruePred, nil, p1, p2, nested, canonAnd(ps...), core.And(ps[4], ps[0]),
		&core.Pred{Op: core.PredAnd, Kids: []*core.Pred{core.TruePred, ps[2]}}}
	for _, p := range two {
		for _, q := range two {
			for _, set := range []core.Attrs{nil, {core.A("C1", "b")}, {core.A("C1", "b"), core.A("C2", "b"), core.A("C3", "r"), core.A("C1", "id")}} {
				w, r := splitPred(canonAnd(p, q), set)
				gw, gr := splitHalf(p, q, set, true), splitHalf(p, q, set, false)
				if !gw.Equal(w) || !gr.Equal(r) || gw.String() != w.String() || gr.String() != r.String() {
					t.Errorf("splitHalf(%v, %v, %v) = %v | %v, splitPred of their conjunction %v | %v", p, q, set, gw, gr, w, r)
				}
			}
		}
	}
	if k := nested.Conjuncts(); k[0] != ps[0] || k[1] != ps[3] || k[2] != ps[1] {
		t.Error("splitHalf reordered an argument")
	}
	within := core.Attrs{core.A("C2", "b"), core.A("C1", "b")}
	if a := testing.AllocsPerRun(100, func() {
		if splitHalf(p1, p2, within, false) != core.TruePred || splitHalf(p1, ps[0], within, true) != p1 {
			t.Fatal("wrong split")
		}
	}); a != 0 {
		t.Errorf("splits keeping at most one conjunct allocate %v objects, want 0", a)
	}
}

// splitPred is join_assoc's split as it was before it took the two
// predicates as they stand: both canonical halves of one conjunction, by
// SplitBy. It is the oracle of splitHalf and of the associativity test.
func splitPred(p *core.Pred, attrs core.Attrs) (within, rest *core.Pred) {
	w, r := p.SplitBy(attrs)
	return canonAnd(w), canonAnd(r)
}

// TestJoinAssociates pins the one applicability test both specifications
// of join_assoc share — JOIN(JOIN(l, m), r) => JOIN(l, JOIN(m, r)) — on
// linear and star query graphs, against the attribute-list formula it
// replaced, and through the Prairie specification's is_assoc helper.
func TestJoinAssociates(t *testing.T) {
	at := func(rel string) core.Attrs { return core.Attrs{core.A(rel, "a"), core.A(rel, "id")} }
	eq := func(r1, r2 string) *core.Pred { return core.EqAttr(core.A(r1, "a"), core.A(r2, "a")) }
	isAssoc := New(catalog.Generate(catalog.DefaultGen(2, 101, false))).HelperImpls()["is_assoc"]
	for _, c := range []struct {
		name         string
		lower, upper *core.Pred
		l, m, r      string
		want         bool
	}{
		// Linear C1 - C2 - C3.
		{"linear, chain order", eq("C1", "C2"), eq("C2", "C3"), "C1", "C2", "C3", true},
		{"linear, middle class outside", eq("C2", "C1"), eq("C2", "C3"), "C2", "C1", "C3", false},
		{"linear, selection rides along", core.And(eq("C1", "C2"), core.EqConst(core.A("C2", "id"), core.Int(1))), eq("C2", "C3"), "C1", "C2", "C3", true},
		// Star with hub C1: C1 - C2, C1 - C3.
		{"star, hub in the middle", eq("C1", "C2"), eq("C1", "C3"), "C2", "C1", "C3", true},
		{"star, hub outside: cross product", eq("C1", "C2"), eq("C1", "C3"), "C1", "C2", "C3", false},
		// Nothing connects the new outer join to l.
		{"no predicate reaches l", core.TruePred, eq("C2", "C3"), "C1", "C2", "C3", false},
		{"no predicates at all", core.TruePred, core.TruePred, "C1", "C2", "C3", false},
	} {
		l, m, r := at(c.l), at(c.m), at(c.r)
		got := core.JoinAssociates(c.lower, c.upper, l, m, r)
		inner, outer := splitPred(canonAnd(c.lower, c.upper), m.Union(r))
		old := len(inner.Attrs().Intersect(m)) > 0 && len(inner.Attrs().Intersect(r)) > 0 &&
			len(outer.Attrs().Intersect(l)) > 0
		viaHelper, err := isAssoc([]core.Value{c.lower, c.upper, l, m, r})
		if got != c.want || old != c.want || err != nil || viaHelper != core.Bool(c.want) {
			t.Errorf("%s: JoinAssociates %v, attribute-list formula %v, is_assoc %v (%v), want %v",
				c.name, got, old, viaHelper, err, c.want)
		}
	}
}

// JoinAssociatesByConstruction is core.JoinAssociates as it was before it
// stopped allocating, kept as its oracle: build the canonical conjunction
// of both predicates, split it by the union of m and r, and ask the two
// halves. Rebind exports rebind. Both serve the external test package,
// which can import the query generator (TestJoinAssociatesOnGeneratedQueries).
func JoinAssociatesByConstruction(lower, upper *core.Pred, l, m, r core.Attrs) bool {
	inner, outer := splitPred(canonAnd(lower, upper), m.Union(r))
	return inner.RefersToAny(m) && inner.RefersToAny(r) && outer.RefersToAny(l)
}

func (o *Opt) Rebind(a *core.Algebra) { o.rebind(a) }

// TestJoinAssociatesMatchesConstruction compares core.JoinAssociates with its
// oracle on the shapes generated queries never present — TRUE on either
// side, selection terms, conjunctions nested in conjuncts, disjunctions,
// every assignment of five small attribute sets — and holds it to zero
// allocations.
func TestJoinAssociatesMatchesConstruction(t *testing.T) {
	at := func(rels ...string) core.Attrs {
		var out core.Attrs
		for _, rel := range rels {
			out = append(out, core.A(rel, "a"), core.A(rel, "id"))
		}
		return out
	}
	eq := func(r1, r2 string) *core.Pred { return core.EqAttr(core.A(r1, "a"), core.A(r2, "a")) }
	sel := func(rel string) *core.Pred { return core.EqConst(core.A(rel, "id"), core.Int(1)) }
	nested := &core.Pred{Op: core.PredAnd, Kids: []*core.Pred{eq("C1", "C2"), core.And(eq("C2", "C3"), sel("C3"))}}
	preds := []*core.Pred{
		core.TruePred, nil, eq("C1", "C2"), eq("C2", "C3"), eq("C1", "C3"), sel("C2"),
		core.And(eq("C1", "C2"), eq("C2", "C3")), core.And(eq("C1", "C3"), sel("C1"), eq("C2", "C3")),
		nested, core.And(nested, eq("C1", "C3")), core.Or(eq("C1", "C2"), eq("C2", "C3")),
		core.And(core.Or(eq("C1", "C2"), sel("C3")), eq("C2", "C3")), core.Not(eq("C2", "C3")),
		{Op: core.PredAnd, Kids: []*core.Pred{core.TruePred, eq("C2", "C3")}},
	}
	sets := []core.Attrs{nil, at("C1"), at("C2"), at("C3"), at("C1", "C2"), at("C2", "C3"), at("C1", "C2", "C3")}
	n := 0
	for _, lower := range preds {
		for _, upper := range preds {
			for _, l := range sets {
				for _, m := range sets {
					for _, r := range sets {
						n++
						if got, want := core.JoinAssociates(lower, upper, l, m, r), JoinAssociatesByConstruction(lower, upper, l, m, r); got != want {
							t.Fatalf("JoinAssociates(%v, %v, %v, %v, %v) = %v, by construction %v", lower, upper, l, m, r, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", n)
	lower, upper := core.And(eq("C1", "C2"), sel("C2")), eq("C2", "C3")
	l, m, r := at("C1"), at("C2"), at("C3")
	if a := testing.AllocsPerRun(100, func() {
		if !core.JoinAssociates(lower, upper, l, m, r) || core.JoinAssociates(upper, core.TruePred, l, m, r) {
			t.Fatal("wrong answer")
		}
	}); a != 0 {
		t.Errorf("JoinAssociates allocates %v times per two calls, want 0", a)
	}
}
