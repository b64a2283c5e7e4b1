package catalog

import (
	"math"
	"testing"
	"testing/quick"

	"prairie/internal/core"
)

func sample() *Catalog {
	cat := New()
	cat.Add(&Class{
		Name: "C1", Card: 1024, TupleSize: 64,
		Attrs: []Attribute{
			{Name: "a", Distinct: 512},
			{Name: "b", Distinct: 256},
			{Name: "ref", Distinct: 1024, Ref: "C2"},
			{Name: "tags", Distinct: 1024, SetValued: true, SetSize: 4},
		},
		Indexes: []string{"b"},
	})
	cat.Add(&Class{
		Name: "C2", Card: 64, TupleSize: 64,
		Attrs: []Attribute{{Name: "a", Distinct: 32}, {Name: "b", Distinct: 16}},
	})
	return cat
}

func TestClassAccessors(t *testing.T) {
	cat := sample()
	c1 := cat.MustClass("C1")
	if a, ok := c1.Attr("ref"); !ok || a.Ref != "C2" {
		t.Errorf("Attr(ref) = %v %v", a, ok)
	}
	if _, ok := c1.Attr("zzz"); ok {
		t.Error("found missing attribute")
	}
	if !c1.HasIndex("b") || c1.HasIndex("a") {
		t.Error("HasIndex wrong")
	}
	as := c1.AttrSet()
	if len(as) != 4 || !as.Contains(core.A("C1", "tags")) {
		t.Errorf("AttrSet = %v", as)
	}
	ix := c1.IndexSet()
	if len(ix) != 1 || ix[0] != core.A("C1", "b") {
		t.Errorf("IndexSet = %v", ix)
	}
	if got := cat.Names(); len(got) != 2 || got[0] != "C1" {
		t.Errorf("Names = %v", got)
	}
	if cat.Len() != 2 {
		t.Errorf("Len = %d", cat.Len())
	}
	if _, ok := cat.Class("C9"); ok {
		t.Error("found missing class")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustClass should panic on missing class")
		}
	}()
	cat.MustClass("C9")
}

func TestDistinct(t *testing.T) {
	cat := sample()
	if got := cat.Distinct(core.A("C1", "a")); got != 512 {
		t.Errorf("Distinct = %g", got)
	}
	// Unknown attributes and classes get a default.
	if got := cat.Distinct(core.A("C1", "zzz")); got != 16 {
		t.Errorf("unknown attr Distinct = %g", got)
	}
	if got := cat.Distinct(core.A("C9", "a")); got != 16 {
		t.Errorf("unknown class Distinct = %g", got)
	}
}

func TestSelectivity(t *testing.T) {
	cat := sample()
	a1, b1 := core.A("C1", "a"), core.A("C1", "b")
	a2 := core.A("C2", "a")
	cases := []struct {
		p    *core.Pred
		want float64
	}{
		{core.TruePred, 1},
		{core.EqConst(b1, core.Int(3)), 1.0 / 256},
		{core.EqAttr(a1, a2), 1.0 / 512}, // 1/max(512, 32)
		{core.CmpConst(core.PredLt, a1, core.Int(9)), 0.25},
		{core.CmpConst(core.PredNe, a1, core.Int(9)), 0.5},
		{core.Not(core.EqConst(b1, core.Int(1))), 0.5},
		{core.And(core.EqConst(b1, core.Int(1)), core.EqAttr(a1, a2)), 1.0 / 256 / 512},
		{core.Or(core.EqConst(b1, core.Int(1)), core.CmpConst(core.PredLt, a1, core.Int(2))), 0.25},
	}
	for _, c := range cases {
		if got := cat.Selectivity(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Selectivity(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestCardEstimates(t *testing.T) {
	cat := sample()
	j := core.EqAttr(core.A("C1", "a"), core.A("C2", "a"))
	if got := cat.JoinCard(1024, 64, j); got != 1024*64/512 {
		t.Errorf("JoinCard = %g", got)
	}
	s := core.EqConst(core.A("C1", "b"), core.Int(1))
	if got := cat.SelectCard(1024, s); got != 4 {
		t.Errorf("SelectCard = %g", got)
	}
}

func TestGenerate(t *testing.T) {
	cat := Generate(DefaultGen(4, 7, true))
	// 4 classes plus their companion sub-object classes.
	if cat.Len() != 8 {
		t.Fatalf("Len = %d", cat.Len())
	}
	for i := 1; i <= 4; i++ {
		cl := cat.MustClass(ClassName(i))
		if cl.Card < 64 || cl.Card > 4096 {
			t.Errorf("%s card %g out of range", cl.Name, cl.Card)
		}
		if !isPow2(cl.Card) {
			t.Errorf("%s card %g not a power of two", cl.Name, cl.Card)
		}
		for _, a := range cl.Attrs {
			if !isPow2(a.Distinct) {
				t.Errorf("%s.%s distinct %g not a power of two", cl.Name, a.Name, a.Distinct)
			}
		}
		if !cl.HasIndex("b") {
			t.Errorf("%s missing index", cl.Name)
		}
		ref, ok := cl.Attr("ref")
		if !ok || ref.Ref == "" {
			t.Errorf("%s missing ref attribute", cl.Name)
		}
		tags, ok := cl.Attr("tags")
		if !ok || !tags.SetValued || tags.SetSize <= 0 {
			t.Errorf("%s missing set-valued attribute", cl.Name)
		}
	}
	// Each ref points to the class's companion sub-object class.
	last, _ := cat.MustClass("C4").Attr("ref")
	if last.Ref != "S4" {
		t.Errorf("C4.ref -> %s", last.Ref)
	}
	sub := cat.MustClass("S4")
	if _, ok := sub.Attr("id"); !ok || sub.Card <= 0 {
		t.Error("companion class malformed")
	}
	// Determinism: same seed, same catalog.
	again := Generate(DefaultGen(4, 7, true))
	for i := 1; i <= 4; i++ {
		if cat.MustClass(ClassName(i)).Card != again.MustClass(ClassName(i)).Card {
			t.Error("generation not deterministic")
		}
	}
	// Different seeds vary cardinalities somewhere.
	other := Generate(DefaultGen(4, 8, true))
	varies := false
	for i := 1; i <= 4; i++ {
		if cat.MustClass(ClassName(i)).Card != other.MustClass(ClassName(i)).Card {
			varies = true
		}
	}
	if !varies {
		t.Error("different seeds produced identical cardinalities")
	}
	// No indexes when not requested.
	plain := Generate(DefaultGen(2, 1, false))
	if plain.MustClass("C1").HasIndex("b") {
		t.Error("unexpected index")
	}
}

// TestAccessPathCosts: the scan and sort costs both optimizers charge,
// and the index an Index_scan picks.
func TestAccessPathCosts(t *testing.T) {
	if FileScanCost(100) != 100 {
		t.Error("FileScanCost")
	}
	if got := IndexScanCost(100, 10, true); got != 28 {
		t.Errorf("IndexScanCost probe = %g, want 28", got)
	}
	if got := IndexScanCost(100, 10, false); got != 108 {
		t.Errorf("IndexScanCost sweep = %g, want 108", got)
	}
	// The cardinality is clamped to 1: 1*log2(2) = 1.
	if got := MergeSortCost(0, 0); got != 1 {
		t.Errorf("MergeSortCost(0,0) = %g, want 1", got)
	}
	if got := MergeSortCost(10, 0); got != 11 {
		t.Errorf("MergeSortCost(10,0) = %g, want 11", got)
	}

	b, c := core.A("C1", "b"), core.A("C1", "c")
	eqB := core.EqConst(b, core.Int(1))
	ix := core.Attrs{c, b}
	if got, ok := PickIndexAttr(ix, core.DontCareOrder, eqB); !ok || got != b {
		t.Errorf("PickIndexAttr(equality on b) = %v %v, want b", got, ok)
	}
	if got, _ := PickIndexAttr(ix, core.OrderBy(c), eqB); got != c {
		t.Errorf("PickIndexAttr(order on c) = %v, want c: the order wins", got)
	}
	if got, _ := PickIndexAttr(ix, core.DontCareOrder, core.TruePred); got != c {
		t.Errorf("PickIndexAttr(no hint) = %v, want the first index", got)
	}
	if _, ok := PickIndexAttr(nil, core.DontCareOrder, core.TruePred); ok {
		t.Error("PickIndexAttr with no indexes")
	}
	if !IndexUsable(b, eqB) {
		t.Error("usable index not detected")
	}
	if IndexUsable(b, core.TruePred) || IndexUsable(c, eqB) {
		t.Error("index without an equality on it considered usable")
	}
}

func TestSelectivityQuickBounds(t *testing.T) {
	cat := sample()
	// Property: selectivity is always in (0, 1] for conjunctions of
	// equality terms.
	if err := quick.Check(func(n uint8) bool {
		var terms []*core.Pred
		for i := uint8(0); i <= n%4; i++ {
			terms = append(terms, core.EqConst(core.A("C1", "b"), core.Int(int64(i))))
		}
		s := cat.Selectivity(core.And(terms...))
		return s > 0 && s <= 1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPow2AtMost(t *testing.T) {
	cases := map[float64]float64{1: 2, 2: 2, 3: 2, 4: 4, 1000: 512, 1024: 1024}
	for in, want := range cases {
		if got := pow2AtMost(in); got != want {
			t.Errorf("pow2AtMost(%g) = %g, want %g", in, got, want)
		}
	}
}

func isPow2(v float64) bool {
	return v > 0 && math.Trunc(math.Log2(v)) == math.Log2(v)
}

// TestCatalogHandsOutSymbols: a class's symbols are fixed at Add, handed
// out as copies, found again by name without interning, and retired when
// the class is replaced.
func TestCatalogHandsOutSymbols(t *testing.T) {
	cat := sample()
	c1 := cat.MustClass("C1")
	as := c1.AttrSet()
	as[0] = core.A("X", "x") // the caller's copy
	if got := c1.AttrSet(); got[0] != core.A("C1", "a") || !got.Equal(core.Attrs{core.A("C1", "a"), core.A("C1", "b"), core.A("C1", "ref"), core.A("C1", "tags")}) {
		t.Errorf("AttrSet = %v after a caller wrote its copy", got)
	}
	if got := testing.AllocsPerRun(10, func() { _ = cat.Sym("C1", "ref"); _ = cat.Distinct(as[1]) }); got != 0 {
		t.Errorf("Sym and Distinct of a catalog attribute allocate %v times", got)
	}
	if cat.Sym("C1", "ref") != core.A("C1", "ref") || cat.Sym("C1", "nope") != core.A("C1", "nope") || cat.Sym("C9", "a") != core.A("C9", "a") {
		t.Error("Sym disagrees with core.A")
	}
	if at, ok := cat.Attribute(core.A("C1", "ref")); !ok || at.Ref != "C2" {
		t.Errorf("Attribute(C1.ref) = %v, %v", at, ok)
	}
	if _, ok := cat.Attribute(core.A("C1", "nope")); ok {
		t.Error("Attribute found a name the class lacks")
	}
	// A class never added still answers (by interning).
	loose := &Class{Name: "L", Attrs: []Attribute{{Name: "k"}}, Indexes: []string{"k"}}
	if got := loose.AttrSet(); len(got) != 1 || got[0] != core.A("L", "k") || loose.IndexSet()[0] != got[0] {
		t.Errorf("AttrSet of a class outside any catalog = %v", got)
	}
	// Replacing a class retires the attributes the new definition drops.
	cat.Add(&Class{Name: "C1", Card: 8, Attrs: []Attribute{{Name: "a", Distinct: 4}}})
	if got := cat.Distinct(core.A("C1", "a")); got != 4 {
		t.Errorf("Distinct(C1.a) = %g after the class was replaced, want 4", got)
	}
	if got := cat.Distinct(core.A("C1", "b")); got != 16 {
		t.Errorf("Distinct(C1.b) = %g after the class dropped b, want the default", got)
	}
	if got := cat.MustClass("C1").IndexSet(); len(got) != 0 {
		t.Errorf("IndexSet = %v after the class dropped its index", got)
	}
}
