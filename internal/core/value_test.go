package core

import (
	"testing"
	"testing/quick"
)

func TestKindNames(t *testing.T) {
	for _, k := range []Kind{KindInt, KindFloat, KindBool, KindString, KindOrder, KindAttrs, KindPred, KindCost} {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Error("KindByName accepted unknown name")
	}
	if DefaultValue(KindInvalid) != nil {
		t.Error("DefaultValue(KindInvalid) should be nil")
	}
}

func TestDefaultValues(t *testing.T) {
	for _, k := range []Kind{KindInt, KindFloat, KindBool, KindString, KindOrder, KindAttrs, KindPred, KindCost} {
		v := DefaultValue(k)
		if v == nil {
			t.Fatalf("no default for %v", k)
		}
		if v.Kind() != k {
			t.Errorf("default for %v has kind %v", k, v.Kind())
		}
		if !v.Equal(DefaultValue(k)) {
			t.Errorf("default for %v not self-equal", k)
		}
		if v.Hash() != DefaultValue(k).Hash() {
			t.Errorf("default for %v hash unstable", k)
		}
	}
}

func TestScalarValues(t *testing.T) {
	cases := []struct {
		a, b Value
		eq   bool
	}{
		{Int(3), Int(3), true},
		{Int(3), Int(4), false},
		{Int(3), Float(3), false}, // cross-kind never equal
		{Float(2.5), Float(2.5), true},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Str("x"), Str("x"), true},
		{Str("x"), Str("y"), false},
		{Cost(9), Cost(9), true},
		{Cost(9), Float(9), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.eq {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.eq)
		}
		if c.eq && c.a.Hash() != c.b.Hash() {
			t.Errorf("equal values %v, %v hash differently", c.a, c.b)
		}
	}
}

func TestHashEqualConsistencyQuick(t *testing.T) {
	// Property: equal ints/floats/strings hash equally and unequal ones
	// (almost always) differ; we only check the required direction.
	if err := quick.Check(func(x int64) bool {
		return Int(x).Hash() == Int(x).Hash() && Int(x).Equal(Int(x))
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(s string) bool {
		return Str(s).Hash() == Str(s).Hash() && Str(s).Equal(Str(s))
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestAttrsSetSemantics(t *testing.T) {
	a := Attrs{A("R", "x"), A("R", "y")}
	b := Attrs{A("R", "y"), A("R", "x")}
	if !a.Equal(b) {
		t.Error("attrs equality should be order-insensitive")
	}
	if a.Hash() != b.Hash() {
		t.Error("attrs hash should be order-insensitive")
	}
	c := Attrs{A("R", "x")}
	if a.Equal(c) || c.Equal(a) {
		t.Error("different-size attr sets compared equal")
	}
	if !a.Contains(A("R", "y")) || a.Contains(A("S", "y")) {
		t.Error("Contains wrong")
	}
	u := c.Union(Attrs{A("R", "y"), A("R", "x")})
	if len(u) != 2 || !u.Equal(a) {
		t.Errorf("Union = %v", u)
	}
	if got := a.Intersect(c); len(got) != 1 || got[0] != A("R", "x") {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(c); len(got) != 1 || got[0] != A("R", "y") {
		t.Errorf("Minus = %v", got)
	}
	s := Attrs{A("S", "b"), A("R", "a")}.Sorted()
	if s[0] != A("R", "a") {
		t.Errorf("Sorted = %v", s)
	}
}

func TestAttrsQuickUnionSuperset(t *testing.T) {
	// Property: union contains both operands; intersect is contained in both.
	gen := func(n uint8) Attrs {
		var out Attrs
		for i := uint8(0); i < n%6; i++ {
			out = append(out, A("R", string(rune('a'+i))))
		}
		return out
	}
	if err := quick.Check(func(n, m uint8) bool {
		a, b := gen(n), gen(m)
		u := a.Union(b)
		i := a.Intersect(b)
		return u.ContainsAll(a) && u.ContainsAll(b) && a.ContainsAll(i) && b.ContainsAll(i)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderSatisfies(t *testing.T) {
	x, y := A("R", "x"), A("R", "y")
	cases := []struct {
		have, want Order
		ok         bool
	}{
		{DontCareOrder, DontCareOrder, true},
		{OrderBy(x), DontCareOrder, true},
		{DontCareOrder, OrderBy(x), false},
		{OrderBy(x), OrderBy(x), true},
		{OrderBy(x, y), OrderBy(x), true}, // prefix
		{OrderBy(x), OrderBy(x, y), false},
		{OrderBy(y), OrderBy(x), false},
	}
	for _, c := range cases {
		if got := c.have.Satisfies(c.want); got != c.ok {
			t.Errorf("%v satisfies %v = %v, want %v", c.have, c.want, got, c.ok)
		}
	}
	if !DontCareOrder.IsDontCare() || OrderBy(x).IsDontCare() {
		t.Error("IsDontCare wrong")
	}
	if OrderBy(x).Equal(OrderBy(y)) || !OrderBy(x, y).Equal(OrderBy(x, y)) {
		t.Error("order equality wrong")
	}
	if OrderBy(x).String() != "<R.x>" || DontCareOrder.String() != "DONT_CARE" {
		t.Errorf("order strings: %q %q", OrderBy(x).String(), DontCareOrder.String())
	}
}

func TestPredConstruction(t *testing.T) {
	x, y := A("R1", "a"), A("R2", "b")
	j := EqAttr(x, y)
	if !j.IsEquiJoin() {
		t.Error("EqAttr should be an equi-join term")
	}
	s := EqConst(x, Int(5))
	if s.IsEquiJoin() {
		t.Error("selection term is not an equi-join")
	}
	conj := And(j, s)
	if len(conj.Conjuncts()) != 2 {
		t.Errorf("conjuncts = %v", conj.Conjuncts())
	}
	// And flattens and drops TRUE.
	flat := And(conj, TruePred, nil)
	if len(flat.Conjuncts()) != 2 {
		t.Errorf("flattened conjuncts = %d", len(flat.Conjuncts()))
	}
	if !And().IsTrue() {
		t.Error("empty And should be TRUE")
	}
	if And(j) != j {
		t.Error("single-term And should return the term")
	}
	if Or(j) != j || !Or().IsTrue() {
		t.Error("Or degenerate cases wrong")
	}
	or2 := Or(Or(j, s), s)
	if or2.Op != PredOr || len(or2.Kids) != 3 {
		t.Errorf("Or flattening: %v", or2)
	}
	n := Not(j)
	if n.Op != PredNot || len(n.Kids) != 1 {
		t.Error("Not shape wrong")
	}
}

func TestPredEqualityAndHash(t *testing.T) {
	x, y := A("R1", "a"), A("R2", "b")
	p1 := And(EqAttr(x, y), EqConst(x, Int(1)))
	p2 := And(EqAttr(x, y), EqConst(x, Int(1)))
	p3 := And(EqAttr(x, y), EqConst(x, Int(2)))
	if !p1.Equal(p2) {
		t.Error("structurally identical predicates unequal")
	}
	if p1.Hash() != p2.Hash() {
		t.Error("equal predicates hash differently")
	}
	if p1.Equal(p3) {
		t.Error("different constants compared equal")
	}
	if !TruePred.Equal((*Pred)(nil)) {
		t.Error("nil predicate should equal TRUE")
	}
	if !p1.Equal(p1) || p1.Equal(TruePred) {
		t.Error("basic equality wrong")
	}
	if p1.Equal(Int(1)) {
		t.Error("cross-kind equality should be false")
	}
}

func TestPredAttrsAndSplit(t *testing.T) {
	x, y, z := A("R1", "a"), A("R2", "b"), A("R1", "c")
	p := And(EqAttr(x, y), EqConst(z, Int(3)))
	attrs := p.Attrs()
	if len(attrs) != 3 {
		t.Errorf("Attrs = %v", attrs)
	}
	r1 := Attrs{x, z}
	within, rest := p.SplitBy(r1)
	if !within.Equal(EqConst(z, Int(3))) {
		t.Errorf("within = %v", within)
	}
	if !rest.Equal(EqAttr(x, y)) {
		t.Errorf("rest = %v", rest)
	}
	if !EqConst(z, Int(3)).RefersOnlyTo(r1) || EqAttr(x, y).RefersOnlyTo(r1) {
		t.Error("RefersOnlyTo wrong")
	}
	if got := TruePred.Attrs(); len(got) != 0 {
		t.Errorf("TRUE attrs = %v", got)
	}
	// RefersToAny and RefersOnlyTo walk the predicate; they agree with
	// the attribute list on every shape, nil included.
	var none *Pred
	for _, q := range []*Pred{p, within, rest, TruePred, none, Not(Or(EqAttr(x, y), EqConst(z, Int(3))))} {
		for _, set := range []Attrs{nil, {x}, {y}, {z}, r1, {x, y, z}, {A("R9", "q")}} {
			if got, want := q.RefersToAny(set), len(q.Attrs().Intersect(set)) > 0; got != want {
				t.Errorf("%v.RefersToAny(%v) = %v, want %v", q, set, got, want)
			}
			if got, want := q.RefersOnlyTo(set), set.ContainsAll(q.Attrs()); got != want {
				t.Errorf("%v.RefersOnlyTo(%v) = %v, want %v", q, set, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { p.RefersToAny(r1); p.RefersOnlyTo(r1) }); n != 0 {
		t.Errorf("RefersToAny and RefersOnlyTo allocate %v times", n)
	}
}

func TestPredStrings(t *testing.T) {
	x, y := A("R1", "a"), A("R2", "b")
	cases := map[string]*Pred{
		"TRUE":                       TruePred,
		"R1.a = R2.b":                EqAttr(x, y),
		"R1.a = 5":                   EqConst(x, Int(5)),
		"NOT R1.a = 5":               Not(EqConst(x, Int(5))),
		"R1.a < 5":                   CmpConst(PredLt, x, Int(5)),
		"(R1.a = 5 AND R1.a = R2.b)": And(EqConst(x, Int(5)), EqAttr(x, y)),
		"(R1.a = 5 OR R1.a = R2.b)":  Or(EqConst(x, Int(5)), EqAttr(x, y)),
		// Canonical conjunct order — and so every plan's text — is the
		// order of these leaf renderings: every operator, an attribute and
		// each constant kind on the right, and no constant at all.
		"R1.a <> R2.b":  {Op: PredNe, Left: x, Right: y, AttrCmp: true},
		"R1.a <= 2.5":   CmpConst(PredLe, x, Float(2.5)),
		"R1.a > 1e+06":  CmpConst(PredGt, x, Cost(1e6)),
		"R1.a >= x y":   CmpConst(PredGe, x, Str("x y")),
		"R1.a = true":   EqConst(x, Bool(true)),
		"R1.a = {R2.b}": EqConst(x, Attrs{y}),
		"R1.a = ":       CmpConst(PredEq, x, nil),
		". ? ":          {Op: PredOp(42)},
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}
