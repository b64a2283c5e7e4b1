package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// TestAndIsOneObject: a conjunction of up to eight terms is one heap
// object, node and kids together, whether its terms come flat or nested;
// past eight it is two. Its kids are its own, at exactly their number,
// so sorting them in place (as canonical conjunctions do) changes no
// input.
func TestAndIsOneObject(t *testing.T) {
	for _, c := range []struct{ n, want int }{{2, 1}, {3, 1}, {4, 1}, {8, 1}, {9, 2}} {
		terms := make([]*Pred, c.n)
		for i := range terms {
			terms[i] = EqConst(A("R", "a"), Int(c.n-i))
		}
		nested, rest := And(terms[:c.n/2]...), And(terms[c.n/2:]...)
		var p *Pred
		if got := testing.AllocsPerRun(10, func() { p = And(terms...) }); got != float64(c.want) {
			t.Errorf("And of %d terms: %v allocations, want %d", c.n, got, c.want)
		}
		if got := testing.AllocsPerRun(10, func() { p = And(nested, TruePred, rest) }); got != float64(c.want) {
			t.Errorf("And of %d nested terms: %v allocations, want %d", c.n, got, c.want)
		}
		if p.Op != PredAnd || !slices.Equal(p.Kids, terms) || cap(p.Kids) != c.n {
			t.Fatalf("And of %d terms: %v with %d kids of capacity %d", c.n, p, len(p.Kids), cap(p.Kids))
		}
		slices.SortFunc(p.Kids, (*Pred).Compare)
		if nested.Kids != nil && !slices.Equal(nested.Kids, terms[:c.n/2]) || !slices.IsSortedFunc(p.Kids, (*Pred).Compare) {
			t.Errorf("sorting a conjunction of %d terms in place reached its input %v", c.n, nested)
		}
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

// ---------------------------------------------------------------------------
// Reference model: attributes as pairs of strings, the representation
// before they were interned, with the set operations, renderings and hash
// formulas exactly as they stood. TestAttrsAgainstStringPairs holds the
// symbol representation to it on random inputs — the hashes as exact
// 64-bit values, because memo keys and plan-cache fingerprints are made
// of them.

type refAttr struct{ Rel, Name string }

func (a refAttr) String() string { return a.Rel + "." + a.Name }

type refAttrs []refAttr

func (v refAttrs) Contains(a refAttr) bool { return slices.Contains(v, a) }

func (v refAttrs) ContainsAll(w refAttrs) bool {
	for _, a := range w {
		if !v.Contains(a) {
			return false
		}
	}
	return true
}

func (v refAttrs) Equal(w refAttrs) bool {
	return len(v) == len(w) && v.ContainsAll(w) && w.ContainsAll(v)
}

func (v refAttrs) Hash() uint64 {
	var h uint64 = 0x66
	for _, a := range v {
		h ^= hashString(a.Rel)*31 ^ hashString(a.Name)
	}
	return h
}

func (v refAttrs) String() string {
	parts := make([]string, len(v))
	for i, a := range v {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (v refAttrs) Union(w refAttrs) refAttrs {
	out := append(refAttrs{}, v...)
	for _, a := range w {
		if !out.Contains(a) {
			out = append(out, a)
		}
	}
	return out
}

func (v refAttrs) Intersect(w refAttrs) refAttrs {
	out := refAttrs{}
	for _, a := range v {
		if w.Contains(a) {
			out = append(out, a)
		}
	}
	return out
}

func (v refAttrs) Minus(w refAttrs) refAttrs {
	out := refAttrs{}
	for _, a := range v {
		if !w.Contains(a) {
			out = append(out, a)
		}
	}
	return out
}

func (v refAttrs) Sorted() refAttrs {
	out := append(refAttrs{}, v...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel < out[j].Rel
		}
		return out[i].Name < out[j].Name
	})
	return out
}

type refOrder struct {
	dontCare bool
	By       refAttrs
}

func (v refOrder) Hash() uint64 {
	if v.dontCare {
		return 0x77
	}
	h := uint64(0x88)
	for _, a := range v.By {
		h = h*1099511628211 ^ hashString(a.Rel)
		h = h*1099511628211 ^ hashString(a.Name)
	}
	return h
}

func (v refOrder) Within(attrs refAttrs) bool { return v.dontCare || attrs.ContainsAll(v.By) }

func (v refOrder) Satisfies(w refOrder) bool {
	if w.dontCare {
		return true
	}
	return !v.dontCare && len(v.By) >= len(w.By) && slices.Equal(v.By[:len(w.By)], w.By)
}

type refPred struct {
	Op          PredOp
	Kids        []*refPred
	Left, Right refAttr
	Const       Value
	AttrCmp     bool
}

func (p *refPred) cmp() bool { return p.Op >= PredEq && p.Op <= PredGe }

func (p *refPred) Hash() uint64 {
	h := uint64(p.Op) * 0x9e3779b97f4a7c15
	for _, k := range p.Kids {
		h = h*1099511628211 ^ k.Hash()
	}
	if p.cmp() {
		h ^= hashString(p.Left.Rel)*3 ^ hashString(p.Left.Name)
		if p.AttrCmp {
			h ^= hashString(p.Right.Rel)*7 ^ hashString(p.Right.Name)
		} else if p.Const != nil {
			h ^= p.Const.Hash()
		}
	}
	return h
}

func (p *refPred) String() string {
	switch p.Op {
	case PredTrue:
		return "TRUE"
	case PredAnd, PredOr:
		parts := make([]string, len(p.Kids))
		for i, k := range p.Kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, " "+p.Op.String()+" ") + ")"
	case PredNot:
		return "NOT " + p.Kids[0].String()
	}
	rhs := ""
	if p.AttrCmp {
		rhs = p.Right.String()
	} else if p.Const != nil {
		rhs = p.Const.String()
	}
	return p.Left.Rel + "." + p.Left.Name + " " + p.Op.String() + " " + rhs
}

func (p *refPred) walk(out *refAttrs) {
	for _, k := range p.Kids {
		k.walk(out)
	}
	if p.cmp() {
		if !out.Contains(p.Left) {
			*out = append(*out, p.Left)
		}
		if p.AttrCmp && !out.Contains(p.Right) {
			*out = append(*out, p.Right)
		}
	}
}

func (p *refPred) Attrs() refAttrs {
	out := refAttrs{}
	p.walk(&out)
	return out
}

func (p *refPred) RefersOnlyTo(set refAttrs) bool { return set.ContainsAll(p.Attrs()) }

// SplitBy returns the renderings of the two conjunctions Pred.SplitBy
// builds: conjuncts within set, and the rest.
func (p *refPred) SplitBy(set refAttrs) (within, rest string) {
	var in, out []*refPred
	switch p.Op {
	case PredTrue:
	case PredAnd:
		for _, c := range p.Kids {
			if c.RefersOnlyTo(set) {
				in = append(in, c)
			} else {
				out = append(out, c)
			}
		}
	default:
		if p.RefersOnlyTo(set) {
			in = []*refPred{p}
		} else {
			out = []*refPred{p}
		}
	}
	and := func(ps []*refPred) string {
		var kids []*refPred // And flattens conjunctions and drops TRUE
		for _, c := range ps {
			switch c.Op {
			case PredTrue:
			case PredAnd:
				kids = append(kids, c.Kids...)
			default:
				kids = append(kids, c)
			}
		}
		switch len(kids) {
		case 0:
			return "TRUE"
		case 1:
			return kids[0].String()
		}
		return (&refPred{Op: PredAnd, Kids: kids}).String()
	}
	return and(in), and(out)
}

func refOf(v Attrs) refAttrs {
	out := make(refAttrs, len(v))
	for i, a := range v {
		out[i] = refAttr{a.Rel(), a.Name()}
	}
	return out
}

func TestAttrsAgainstStringPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rels := []string{"", "C1", "C2", "C10", "S1", "a_long_relation_name"}
	names := []string{"", "a", "b", "id", "ref", "C1"}
	attr := func() (Attr, refAttr) {
		r := refAttr{rels[rng.Intn(len(rels))], names[rng.Intn(len(names))]}
		return A(r.Rel, r.Name), r
	}
	list := func() (Attrs, refAttrs) { // duplicates allowed: lists, not sets
		n := rng.Intn(9)
		v, r := make(Attrs, n), make(refAttrs, n)
		for i := range v {
			v[i], r[i] = attr()
		}
		return v, r
	}
	order := func() (Order, refOrder) {
		if rng.Intn(5) == 0 {
			return DontCareOrder, refOrder{dontCare: true}
		}
		v, r := list()
		return OrderBy(v...), refOrder{By: r}
	}
	var pred func(depth int) (*Pred, *refPred)
	pred = func(depth int) (*Pred, *refPred) {
		switch k := rng.Intn(8); {
		case k == 0:
			return TruePred, &refPred{Op: PredTrue}
		case k <= 2 && depth < 3:
			op := []PredOp{PredAnd, PredOr, PredNot}[rng.Intn(3)]
			n := 1
			if op != PredNot {
				n = 2 + rng.Intn(3)
			}
			p, r := &Pred{Op: op}, &refPred{Op: op}
			for i := 0; i < n; i++ {
				pk, rk := pred(depth + 1)
				p.Kids, r.Kids = append(p.Kids, pk), append(r.Kids, rk)
			}
			return p, r
		}
		op := PredEq + PredOp(rng.Intn(int(PredGe-PredEq)+1))
		l, rl := attr()
		if rng.Intn(2) == 0 {
			rt, rr := attr()
			return &Pred{Op: op, Left: l, Right: rt, AttrCmp: true}, &refPred{Op: op, Left: rl, Right: rr, AttrCmp: true}
		}
		c := Value(Int(rng.Intn(4)))
		if rng.Intn(4) == 0 {
			c = Str(names[rng.Intn(len(names))])
		}
		return CmpConst(op, l, c), &refPred{Op: op, Left: rl, Const: c}
	}
	same := func(what string, got Attrs, want refAttrs) {
		t.Helper()
		if !slices.Equal(refOf(got), want) {
			t.Fatalf("%s = %v, string pairs give %v", what, got, want)
		}
	}
	for i := 0; i < 12000; i++ {
		v, rv := list()
		w, rw := list()
		same("Union", v.Union(w), rv.Union(rw))
		same("Intersect", v.Intersect(w), rv.Intersect(rw))
		same("Minus", v.Minus(w), rv.Minus(rw))
		same("Sorted", v.Sorted(), rv.Sorted())
		a, ra := attr()
		if v.Contains(a) != rv.Contains(ra) || v.ContainsAll(w) != rv.ContainsAll(rw) || v.Equal(w) != rv.Equal(rw) ||
			v.Equal(v.Sorted()) != true {
			t.Fatalf("Contains/ContainsAll/Equal disagree on %v, %v, %v", v, w, a)
		}
		if v.String() != rv.String() || v.Hash() != rv.Hash() {
			t.Fatalf("%v: String %q / %q, Hash %x / %x", v, v.String(), rv.String(), v.Hash(), rv.Hash())
		}
		o, ro := order()
		o2, ro2 := order()
		if o.Hash() != ro.Hash() || o.Within(v) != ro.Within(rv) || o.Satisfies(o2) != ro.Satisfies(ro2) ||
			!o.Satisfies(o) || o.Equal(o2) != (ro.dontCare == ro2.dontCare && slices.Equal(ro.By, ro2.By)) {
			t.Fatalf("Order %v (against %v, within %v) disagrees with the string-pair order", o, o2, v)
		}
		p, rp := pred(0)
		if p.String() != rp.String() || p.Hash() != rp.Hash() {
			t.Fatalf("Pred %v: String %q, Hash %x; string pairs give %q, %x", p, p.String(), p.Hash(), rp.String(), rp.Hash())
		}
		same("Pred.Attrs", p.Attrs(), rp.Attrs())
		if p.RefersOnlyTo(v) != rp.RefersOnlyTo(rv) || p.RefersToAny(v) != (len(rp.Attrs().Intersect(rv)) > 0) {
			t.Fatalf("RefersOnlyTo/RefersToAny(%v) disagree on %v", v, p)
		}
		in, out := p.SplitBy(v)
		rin, rout := rp.SplitBy(rv)
		if in.String() != rin || out.String() != rout {
			t.Fatalf("%v.SplitBy(%v) = %v | %v, string pairs give %v | %v", p, v, in, out, rin, rout)
		}
	}
}

// TestPredCompareAgainstStrings holds Pred.Compare — which orders the
// conjuncts of every canonical conjunction without rendering them — to the
// order of the renderings it stands for, with refPred's string building as
// the oracle: random predicates over names that prefix one another, every
// comparison operator and an unknown one, AND/OR/NOT to depth four, and
// constants of every kind, several rendering alike ("1" is Int, Float,
// Cost and Str). A sort by Compare must also permute like a sort by the
// strings, since plan text and wire bytes follow that order; AppendTo,
// which the plan cache's fingerprint renders with, must append String's
// bytes.
func TestPredCompareAgainstStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rels := []string{"", "C", "C1", "C10", "C1.a"}
	names := []string{"", "a", "a ", "b", "id"}
	consts := []Value{nil, Int(1), Int(-7), Int(123456789012), Float(1), Float(0.5), Float(math.Copysign(0, -1)), Float(1e21),
		Float(math.Inf(1)), Float(math.NaN()), Cost(1), Cost(2.5e-7), Bool(true), Bool(false), Str("1"), Str(""),
		Str("C1.a = 1"), Attrs{A("C1", "a"), A("C", "b")}, Attrs(nil), OrderBy(A("C1", "a")), DontCareOrder,
		EqConst(A("C1", "a"), Int(1)), (*Pred)(nil)}
	attr := func() (Attr, refAttr) {
		r := refAttr{rels[rng.Intn(len(rels))], names[rng.Intn(len(names))]}
		return A(r.Rel, r.Name), r
	}
	var pred func(depth int) (*Pred, *refPred)
	pred = func(depth int) (*Pred, *refPred) {
		switch k := rng.Intn(9); {
		case k == 0:
			return TruePred, &refPred{Op: PredTrue}
		case k <= 3 && depth < 4:
			op := []PredOp{PredAnd, PredOr, PredNot}[rng.Intn(3)]
			n := 1
			if op != PredNot {
				n = rng.Intn(4) // (), a lone kid and longer lists
			}
			p, r := &Pred{Op: op}, &refPred{Op: op}
			for i := 0; i < n; i++ {
				pk, rk := pred(depth + 1)
				p.Kids, r.Kids = append(p.Kids, pk), append(r.Kids, rk)
			}
			return p, r
		}
		op := PredEq + PredOp(rng.Intn(int(PredGe-PredEq)+1))
		if rng.Intn(20) == 0 {
			op = PredOp(42)
		}
		l, rl := attr()
		rt, rr := attr() // a constant comparison keeps a Right its rendering ignores
		if rng.Intn(2) == 0 {
			return &Pred{Op: op, Left: l, Right: rt, AttrCmp: true}, &refPred{Op: op, Left: rl, Right: rr, AttrCmp: true}
		}
		c := consts[rng.Intn(len(consts))]
		return &Pred{Op: op, Left: l, Right: rt, Const: c}, &refPred{Op: op, Left: rl, Const: c}
	}
	sign := func(c int) int { return min(max(c, -1), 1) }
	for i := 0; i < 20000; i++ {
		p, rp := pred(0)
		q, rq := pred(0)
		if i%5 == 0 {
			q, rq = p, rp // equal renderings
		}
		if got, want := sign(p.Compare(q)), strings.Compare(rp.String(), rq.String()); got != want {
			t.Fatalf("%q.Compare(%q) = %d, the strings compare %d", rp.String(), rq.String(), got, want)
		}
		if got := string(p.AppendTo([]byte("<"))); got != "<"+p.String() || p.String() != rp.String() {
			t.Fatalf("AppendTo appends %q, String is %q, the string pairs give %q", got[1:], p.String(), rp.String())
		}
	}
	for i := 0; i < 2000; i++ {
		var ps []*Pred
		var refs []string
		for n := rng.Intn(9); n > 0; n-- {
			p, rp := pred(2)
			ps, refs = append(ps, p), append(refs, rp.String())
		}
		byPred, byString := slices.Clone(ps), make([]int, len(ps))
		for j := range byString {
			byString[j] = j
		}
		slices.SortFunc(byPred, (*Pred).Compare)
		slices.SortFunc(byString, func(a, b int) int { return strings.Compare(refs[a], refs[b]) })
		for j, k := range byString {
			if byPred[j] != ps[k] {
				t.Fatalf("sorting %q by Compare permutes differently from sorting the strings", refs)
			}
		}
	}
}

// TestPredCompareAllocatesNothing: ordering the conjuncts the rules build
// — join terms and selections on integers — renders and allocates nothing.
func TestPredCompareAllocatesNothing(t *testing.T) {
	ps := []*Pred{EqAttr(A("C1", "a"), A("C2", "a")), EqAttr(A("C1", "a"), A("C10", "a")),
		EqConst(A("C2", "b"), Int(2)), EqConst(A("C2", "b"), Int(12)), EqConst(A("C2", "b"), Str("x"))}
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range ps {
			for _, q := range ps {
				p.Compare(q)
			}
		}
	}); n != 0 {
		t.Errorf("comparing %d conjuncts pairwise allocates %.0f objects", len(ps), n)
	}
}
