package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The join rules' kernels — Attrs.Union, Pred.RefersOnlyToEither,
// SplitHalf, JoinAssociates and OrderOn — each replace code that built a
// value only to test or split it. The functions below are that code,
// kept as the kernels' oracles.

// unionQuadratic is Attrs.Union as it was: every attribute of w looked
// up in everything appended so far.
func unionQuadratic(v, w Attrs) Attrs {
	out := make(Attrs, 0, len(v)+len(w))
	out = append(out, v...)
	for _, a := range w {
		if !out.Contains(a) {
			out = append(out, a)
		}
	}
	return out
}

// splitOfConjunction is SplitBy as it was, one pass over the conjuncts
// of the conjunction it splits.
func splitOfConjunction(p *Pred, set Attrs) (within, rest *Pred) {
	var in, out []*Pred
	for _, c := range p.Conjuncts() {
		if c.RefersOnlyTo(set) {
			in = append(in, c)
		} else {
			out = append(out, c)
		}
	}
	return And(in...), And(out...)
}

// isAssociativeByConstruction is the relational optimizer's
// is_associative as it was: conjoin both predicates, split the
// conjunction by the union of m and r, and intersect each half's
// attribute list with the sets it must reach.
func isAssociativeByConstruction(lower, upper *Pred, l, m, r Attrs) bool {
	inner, outer := splitOfConjunction(And(lower, upper), m.Union(r))
	return len(inner.Attrs().Intersect(m)) > 0 && len(inner.Attrs().Intersect(r)) > 0 &&
		len(outer.Attrs().Intersect(l)) > 0
}

// kernelPool is the attributes the kernel checks draw from: four
// symbols below 256 and, for each, the symbols 256 and 512 above it, so
// that a Union signature bit stands for up to three attributes.
func kernelPool() []Attr {
	for i := 0; len(attrEntries()) < 4*256; i++ {
		A("K", fmt.Sprint(i))
	}
	var pool []Attr
	for _, s := range []uint32{3, 64, 129, 255} {
		pool = append(pool, Attr{s}, Attr{s + 256}, Attr{s + 512})
	}
	return pool
}

// kernelCase decodes bytes into what the kernels take: three attribute
// lists (duplicates allowed) and two predicates — TRUE, a term, a
// conjunction, or a conjunction whose kids include a TRUE, a disjunction
// or a negation — over the pool.
type kernelCase struct {
	l, m, r      Attrs
	lower, upper *Pred
}

func decodeKernelCase(pool []Attr, data []byte) kernelCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	attr := func() Attr { return pool[next()%len(pool)] }
	list := func() Attrs {
		n := next() % 7
		out := make(Attrs, n)
		for i := range out {
			out[i] = attr()
		}
		return out
	}
	term := func() *Pred {
		switch next() % 8 {
		case 0:
			return TruePred
		case 1:
			return EqConst(attr(), Int(next()%3))
		case 2:
			return Or(EqAttr(attr(), attr()), EqConst(attr(), Int(1)))
		case 3:
			return Not(EqAttr(attr(), attr()))
		}
		return EqAttr(attr(), attr())
	}
	pred := func() *Pred {
		switch n := next() % 6; n {
		case 0:
			return TruePred
		case 1:
			return term()
		case 5: // built by hand, as And never builds it: a TRUE kid
			return &Pred{Op: PredAnd, Kids: []*Pred{TruePred, term()}}
		default:
			kids := make([]*Pred, n)
			for i := range kids {
				kids[i] = term()
			}
			return And(kids...)
		}
	}
	var c kernelCase
	c.l, c.m, c.r = list(), list(), list()
	c.lower, c.upper = pred(), pred()
	return c
}

// checkKernels holds each kernel to its oracle on one case.
func checkKernels(t *testing.T, c kernelCase) {
	t.Helper()
	for _, vw := range [][2]Attrs{{c.l, c.m}, {c.m, c.r}, {c.r, c.r}, {nil, c.l}, {c.l, nil}} {
		if got, want := vw[0].Union(vw[1]), unionQuadratic(vw[0], vw[1]); !slices.Equal(got, want) {
			t.Fatalf("%v.Union(%v) = %v, the quadratic union %v", vw[0], vw[1], got, want)
		}
	}
	for _, p := range []*Pred{c.lower, c.upper} {
		if got, want := p.RefersOnlyToEither(c.m, c.r), p.RefersOnlyTo(c.m.Union(c.r)); got != want {
			t.Fatalf("%v.RefersOnlyToEither(%v, %v) = %v, RefersOnlyTo the union %v", p, c.m, c.r, got, want)
		}
	}
	for _, mr := range [][2]Attrs{{c.m, c.r}, {c.l, nil}, {nil, c.l}, {c.r, c.l}} {
		win, wout := splitOfConjunction(And(c.lower, c.upper), mr[0].Union(mr[1]))
		if in, out := SplitHalf(c.lower, c.upper, mr[0], mr[1], true), SplitHalf(c.lower, c.upper, mr[0], mr[1], false); !in.Equal(win) || !out.Equal(wout) ||
			in.String() != win.String() || out.String() != wout.String() {
			t.Fatalf("SplitHalf(%v, %v, %v, %v) = %v | %v, the split of their conjunction by the union %v | %v", c.lower, c.upper, mr[0], mr[1], in, out, win, wout)
		}
	}
	in, out := c.lower.SplitBy(c.l)
	if win, wout := splitOfConjunction(c.lower, c.l); in.String() != win.String() || out.String() != wout.String() {
		t.Fatalf("%v.SplitBy(%v) = %v | %v, one pass %v | %v", c.lower, c.l, in, out, win, wout)
	}
	if got, want := JoinAssociates(c.lower, c.upper, c.l, c.m, c.r), isAssociativeByConstruction(c.lower, c.upper, c.l, c.m, c.r); got != want {
		t.Fatalf("JoinAssociates(%v, %v, %v, %v, %v) = %v, by construction %v", c.lower, c.upper, c.l, c.m, c.r, got, want)
	}
}

// aliasingSeeds are byte strings whose lists put symbols 256 apart side
// by side: in v and w, twice in w, and in the sets a predicate is
// tested against; the last joins an attribute of m to one of r, a
// conjunct neither list holds alone.
var aliasingSeeds = [][]byte{
	{3, 3, 0, 1, 2, 2, 0, 1, 4, 6, 6, 6, 3, 9, 1},
	{4, 0, 1, 3, 4, 5, 1, 4, 2, 0, 2, 3, 6, 0, 1, 6, 4, 3, 9, 10, 11, 2, 3, 5},
	{6, 1, 2, 1, 2, 4, 5, 2, 7, 8, 0, 3, 6, 9, 10, 9, 10, 5, 6, 1, 4, 3, 0, 7, 10},
	{2, 0, 3, 2, 6, 9, 6, 0, 1, 2, 3, 4, 5, 4, 7, 0, 3, 1, 6, 5, 7, 3, 6, 2},
	{2, 0, 1, 1, 3, 1, 6, 2, 4, 3, 6, 1, 0, 2, 4, 6, 9},
}

// TestAttrKernelsMatchTheirOracles runs the kernel checks on the
// aliasing seeds and on random byte strings.
func TestAttrKernelsMatchTheirOracles(t *testing.T) {
	pool := kernelPool()
	for _, s := range aliasingSeeds {
		checkKernels(t, decodeKernelCase(pool, s))
	}
	rng := rand.New(rand.NewSource(47))
	data := make([]byte, 64)
	for i := 0; i < 20000; i++ {
		rng.Read(data)
		checkKernels(t, decodeKernelCase(pool, data))
	}
}

// FuzzAttrKernels is TestAttrKernelsMatchTheirOracles on fuzzed bytes.
func FuzzAttrKernels(f *testing.F) {
	for _, s := range aliasingSeeds {
		f.Add(s)
	}
	pool := kernelPool()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkKernels(t, decodeKernelCase(pool, data))
	})
}

// TestUnionAliasedSymbols: symbols 256 apart share a signature bit, and
// Union still keeps each once, in first-seen order.
func TestUnionAliasedSymbols(t *testing.T) {
	pool := kernelPool()
	a, a256, a512, b := pool[0], pool[1], pool[2], pool[3]
	for _, c := range []struct{ v, w, want Attrs }{
		{Attrs{a}, Attrs{a256, a, a512, a256}, Attrs{a, a256, a512}},
		{Attrs{a256}, Attrs{a, a, b, a512, b}, Attrs{a256, a, b, a512}},
		{nil, Attrs{a512, a512, a256, a512}, Attrs{a512, a256}},
		{Attrs{a, a}, nil, Attrs{a, a}}, // v is kept as it is
	} {
		if got := c.v.Union(c.w); !slices.Equal(got, c.want) {
			t.Errorf("%v.Union(%v) = %v, want %v", c.v, c.w, got, c.want)
		}
	}
}

// TestKernelAllocations pins what each kernel allocates: a union is its
// one list, a test over two sets and the associativity test nothing,
// a split keeping at most one conjunct nothing, and a one-attribute
// order is boxed when its attribute is interned.
func TestKernelAllocations(t *testing.T) {
	a, b, c := A("KA", "a"), A("KB", "a"), A("KC", "a")
	l, m, r := Attrs{a}, Attrs{b, A("KB", "id")}, Attrs{c}
	lower := And(EqAttr(a, b), EqConst(A("KB", "id"), Int(1)))
	upper := EqAttr(b, c)
	mb := Attrs{b}
	for _, k := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Union", 1, func() { _ = l.Union(m) }},
		{"RefersOnlyToEither", 0, func() { _ = upper.RefersOnlyToEither(m, r) }},
		{"JoinAssociates", 0, func() { _ = JoinAssociates(lower, upper, l, m, r) }},
		{"OrderOn", 0, func() { _ = OrderOn(a) }},
		{"SplitHalf keeping one conjunct", 0, func() { _ = SplitHalf(lower, upper, mb, r, true) }},
		{"SplitHalf keeping none", 0, func() { _ = SplitHalf(upper, TruePred, l, nil, true) }},
	} {
		if got := testing.AllocsPerRun(100, k.f); got != k.want {
			t.Errorf("%s allocates %v objects, want %v", k.name, got, k.want)
		}
	}
	if !JoinAssociates(lower, upper, l, m, r) || SplitHalf(lower, upper, mb, r, true) != upper {
		t.Error("the pinned calls answer wrongly")
	}
}

// TestOrderOn: the shared order is OrderBy(a) for every attribute, the
// zero one included, and the same box on every call.
func TestOrderOn(t *testing.T) {
	for _, a := range append(kernelPool(), Attr{}, A("KA", "a")) {
		o := OrderOn(a)
		if !o.Equal(OrderBy(a)) || o.Hash() != OrderBy(a).Hash() || o.String() != OrderBy(a).String() {
			t.Errorf("OrderOn(%v) = %v, want %v", a, o, OrderBy(a))
		}
		if by := o.(Order).By; len(by) != 1 || &by[0] != &OrderOn(a).(Order).By[0] {
			t.Errorf("OrderOn(%v) is not one shared box", a)
		}
	}
}
