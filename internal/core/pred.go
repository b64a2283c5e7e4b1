package core

import (
	"strconv"
	"strings"
)

// PredOp enumerates predicate node operators.
type PredOp uint8

// Predicate node operators. Comparison nodes compare an attribute against
// either a constant or another attribute (a join term).
const (
	PredTrue PredOp = iota // always true (the empty predicate)
	PredEq
	PredNe
	PredLt
	PredLe
	PredGt
	PredGe
	PredAnd
	PredOr
	PredNot
)

func (op PredOp) String() string {
	switch op {
	case PredTrue:
		return "TRUE"
	case PredEq:
		return "="
	case PredNe:
		return "<>"
	case PredLt:
		return "<"
	case PredLe:
		return "<="
	case PredGt:
		return ">"
	case PredGe:
		return ">="
	case PredAnd:
		return "AND"
	case PredOr:
		return "OR"
	case PredNot:
		return "NOT"
	default:
		return "?"
	}
}

// Pred is an immutable predicate tree. Leaves are comparisons; interior
// nodes are AND/OR/NOT. The zero-value semantics are provided by TruePred.
//
// Predicates appear as descriptor properties (join_predicate,
// selection_predicate in Table 2) and are evaluated by the execution
// engine and by selectivity estimation in the catalog package.
type Pred struct {
	Op    PredOp
	Kids  []*Pred // for And/Or/Not
	Left  Attr    // comparison: left attribute
	Right Attr    // comparison against attribute, when AttrCmp
	Const Value   // comparison against constant, when !AttrCmp
	// AttrCmp distinguishes attribute-attribute comparisons (join terms)
	// from attribute-constant comparisons (selection terms).
	AttrCmp bool
}

// TruePred is the always-true predicate; it is the default value of
// predicate-kind properties.
var TruePred = &Pred{Op: PredTrue}

// EqConst returns the selection term "a = c".
func EqConst(a Attr, c Value) *Pred { return CmpConst(PredEq, a, c) }

// CmpConst returns the selection term "a op c".
func CmpConst(op PredOp, a Attr, c Value) *Pred {
	return &Pred{Op: op, Left: a, Const: c}
}

// EqAttr returns the join term "a = b".
func EqAttr(a, b Attr) *Pred { return &Pred{Op: PredEq, Left: a, Right: b, AttrCmp: true} }

// And conjoins predicates, dropping TRUE terms and flattening nested ANDs.
// And() with no live terms returns TruePred. The terms are counted first,
// so a conjunction is allocated once, at its size: up to eight
// conjuncts, node and kids are one object. Its kids are its own, so a
// caller may reorder them before the conjunction is shared.
func And(ps ...*Pred) *Pred {
	n, last := 0, TruePred
	for _, p := range ps {
		if c := p.Conjuncts(); len(c) > 0 {
			n, last = n+len(c), c[len(c)-1]
		}
	}
	if n <= 1 {
		return last
	}
	var and *Pred
	if n-2 < len(conjs) {
		and = conjs[n-2]()
	} else {
		and = &Pred{Op: PredAnd, Kids: make([]*Pred, 0, n)}
	}
	for _, p := range ps {
		and.Kids = append(and.Kids, p.Conjuncts()...)
	}
	return and
}

// A conj is a conjunction and its kids in one heap object; S is [n]*Pred.
type conj[S any] struct {
	p Pred
	s S
}

func conjOf[S any](kids func(*S) []*Pred) func() *Pred {
	return func() *Pred {
		c := new(conj[S])
		c.p.Op, c.p.Kids = PredAnd, kids(&c.s)[:0]
		return &c.p
	}
}

// conjs[n-2] allocates an empty conjunction with room for exactly n
// kids. A Pred is 64 bytes, so the object, 64+8n bytes rounded up to a
// size class, costs what the node and slice it replaces cost, or 8
// bytes more (n = 3).
var conjs = [...]func() *Pred{
	conjOf(func(s *[2]*Pred) []*Pred { return s[:] }),
	conjOf(func(s *[3]*Pred) []*Pred { return s[:] }),
	conjOf(func(s *[4]*Pred) []*Pred { return s[:] }),
	conjOf(func(s *[5]*Pred) []*Pred { return s[:] }),
	conjOf(func(s *[6]*Pred) []*Pred { return s[:] }),
	conjOf(func(s *[7]*Pred) []*Pred { return s[:] }),
	conjOf(func(s *[8]*Pred) []*Pred { return s[:] }),
}

// Or disjoins predicates. Or() of nothing returns TruePred for symmetry
// with And; callers build disjunctions from at least one term.
func Or(ps ...*Pred) *Pred {
	var kids []*Pred
	for _, p := range ps {
		if p == nil {
			continue
		}
		if p.Op == PredOr {
			kids = append(kids, p.Kids...)
			continue
		}
		kids = append(kids, p)
	}
	switch len(kids) {
	case 0:
		return TruePred
	case 1:
		return kids[0]
	}
	return &Pred{Op: PredOr, Kids: kids}
}

// Not negates a predicate.
func Not(p *Pred) *Pred { return &Pred{Op: PredNot, Kids: []*Pred{p}} }

// Kind implements Value.
func (*Pred) Kind() Kind { return KindPred }

// IsDontCare implements Value; TRUE acts as the "no constraint" predicate.
func (p *Pred) IsDontCare() bool { return p == nil || p.Op == PredTrue }

// IsTrue reports whether the predicate is the constant TRUE.
func (p *Pred) IsTrue() bool { return p == nil || p.Op == PredTrue }

// Equal implements Value (structural equality; AND/OR kid order matters
// except that construction canonicalizes via flattening).
func (p *Pred) Equal(o Value) bool {
	q, ok := o.(*Pred)
	if !ok {
		return false
	}
	return predEqual(p, q)
}

func predEqual(p, q *Pred) bool {
	if p == nil || q == nil {
		return p.IsTrue() && q.IsTrue()
	}
	if p.Op != q.Op || len(p.Kids) != len(q.Kids) || p.AttrCmp != q.AttrCmp {
		return false
	}
	for i := range p.Kids {
		if !predEqual(p.Kids[i], q.Kids[i]) {
			return false
		}
	}
	if p.Op >= PredEq && p.Op <= PredGe {
		if p.Left != q.Left {
			return false
		}
		if p.AttrCmp {
			return p.Right == q.Right
		}
		if (p.Const == nil) != (q.Const == nil) {
			return false
		}
		return p.Const == nil || p.Const.Equal(q.Const)
	}
	return true
}

// Hash implements Value.
func (p *Pred) Hash() uint64 {
	if p == nil {
		return 0x99
	}
	h := uint64(p.Op) * 0x9e3779b97f4a7c15
	for _, k := range p.Kids {
		h = h*1099511628211 ^ k.Hash()
	}
	if p.Op >= PredEq && p.Op <= PredGe {
		l := p.Left.entry()
		h ^= l.relHash*3 ^ l.nameHash
		if p.AttrCmp {
			r := p.Right.entry()
			h ^= r.relHash*7 ^ r.nameHash
		} else if p.Const != nil {
			h ^= p.Const.Hash()
		}
	}
	return h
}

// String implements Value. TRUE is a constant and the pieces of anything
// else are measured first, so a rendering is at most one allocation.
func (p *Pred) String() string {
	if p.IsTrue() {
		return "TRUE"
	}
	var b strings.Builder
	n := 0
	p.pieces(func(s string) bool { n += len(s); return true })
	b.Grow(n)
	p.pieces(func(s string) bool { b.WriteString(s); return true })
	return b.String()
}

// AppendTo appends p's rendering — String's bytes — to b, building no
// string of its own (the plan cache's fingerprint renders every
// predicate of every query it is asked).
func (p *Pred) AppendTo(b []byte) []byte {
	p.pieces(func(s string) bool { b = append(b, s...); return true })
	return b
}

// pieces calls yield with the pieces of p's rendering in order — names,
// operators, punctuation, constants — until yield returns false; it
// reports whether it got to the end.
func (p *Pred) pieces(yield func(string) bool) bool {
	switch {
	case p == nil || p.Op == PredTrue:
		return yield("TRUE")
	case p.Op == PredAnd || p.Op == PredOr:
		if !yield("(") {
			return false
		}
		for i, k := range p.Kids {
			if i > 0 && !yield([...]string{PredAnd: " AND ", PredOr: " OR "}[p.Op]) || !k.pieces(yield) {
				return false
			}
		}
		return yield(")")
	case p.Op == PredNot:
		return yield("NOT ") && p.Kids[0].pieces(yield)
	}
	l, r := p.Left.entry(), p.Right.entry()
	if !(yield(l.rel) && yield(".") && yield(l.name) && yield(" ") && yield(p.Op.String()) && yield(" ")) {
		return false
	}
	if p.AttrCmp {
		return yield(r.rel) && yield(".") && yield(r.name)
	}
	switch c := p.Const.(type) {
	case nil:
		return true
	case Str:
		return yield(string(c))
	case Int:
		return yield(strconv.FormatInt(int64(c), 10))
	case *Pred:
		return c.pieces(yield)
	}
	return yield(p.Const.String())
}

// piece returns the k-th piece of p's rendering; false past the last.
func (p *Pred) piece(k int) (s string, ok bool) {
	p.pieces(func(x string) bool {
		if k--; k < 0 {
			s, ok = x, true
		}
		return !ok
	})
	return s, ok
}

// Compare orders predicates by their renderings — it returns
// strings.Compare(p.String(), q.String()) — without building them: p's
// pieces are matched against q's, which are read afresh each (a
// comparison has nine). Canonical conjunct orders sort by it.
func (p *Pred) Compare(q *Pred) int {
	r, k, rest := 0, 0, ""
	more := func() bool { // the next non-empty piece of q, if any
		for ok := true; rest == "" && ok; k++ {
			rest, ok = q.piece(k)
		}
		return rest != ""
	}
	p.pieces(func(a string) bool {
		for r == 0 && a != "" {
			if !more() {
				r = 1
				break
			}
			n := min(len(a), len(rest))
			r = strings.Compare(a[:n], rest[:n])
			a, rest = a[n:], rest[n:]
		}
		return r == 0
	})
	if r == 0 && more() {
		return -1
	}
	return r
}

// Conjuncts returns the top-level AND terms of p (p itself if it is not a
// conjunction, nothing if it is TRUE).
func (p *Pred) Conjuncts() []*Pred {
	if p.IsTrue() {
		return nil
	}
	if p.Op == PredAnd {
		return p.Kids
	}
	return []*Pred{p}
}

// Attrs returns every attribute referenced by the predicate.
func (p *Pred) Attrs() Attrs {
	var out Attrs
	p.walkAttrs(&out)
	return out
}

func (p *Pred) walkAttrs(out *Attrs) {
	if p == nil {
		return
	}
	for _, k := range p.Kids {
		k.walkAttrs(out)
	}
	if p.Op >= PredEq && p.Op <= PredGe {
		if !out.Contains(p.Left) {
			*out = append(*out, p.Left)
		}
		if p.AttrCmp && !out.Contains(p.Right) {
			*out = append(*out, p.Right)
		}
	}
}

// RefersOnlyTo reports whether every attribute referenced by p is in set.
// Rules use it to decide predicate pushdown applicability.
func (p *Pred) RefersOnlyTo(set Attrs) bool {
	return !p.AnyAttr(func(a Attr) bool { return !set.Contains(a) })
}

// RefersOnlyToEither reports whether every attribute referenced by p is
// in a or in b: RefersOnlyTo(a.Union(b)), without building the union.
func (p *Pred) RefersOnlyToEither(a, b Attrs) bool {
	return !p.AnyAttr(func(x Attr) bool { return !a.Contains(x) && !b.Contains(x) })
}

// RefersToAny reports whether p references at least one attribute of set.
func (p *Pred) RefersToAny(set Attrs) bool { return p.AnyAttr(set.Contains) }

// AnyAttr reports whether some attribute p references satisfies hit; it
// walks the predicate without materializing Attrs().
func (p *Pred) AnyAttr(hit func(Attr) bool) bool {
	if p == nil {
		return false
	}
	for _, k := range p.Kids {
		if k.AnyAttr(hit) {
			return true
		}
	}
	if p.Op >= PredEq && p.Op <= PredGe {
		return hit(p.Left) || p.AttrCmp && hit(p.Right)
	}
	return false
}

// IsEquiJoin reports whether p is a single attribute-attribute equality.
func (p *Pred) IsEquiJoin() bool {
	return p != nil && p.Op == PredEq && p.AttrCmp
}

// SplitBy partitions the conjuncts of p into those referring only to the
// given attribute set and the rest, returning the two conjunctions.
func (p *Pred) SplitBy(set Attrs) (within, rest *Pred) {
	return SplitHalf(p, nil, set, nil, true), SplitHalf(p, nil, set, nil, false)
}

// SplitHalf returns one half of And(p, q).SplitBy(m.Union(r)) without
// building the conjunction or the union: the conjunction of the
// conjuncts of p, then those of q, that refer only to attributes of m or
// r (within) or of the others (!within), in that order. A half of at
// most one conjunct allocates nothing.
func SplitHalf(p, q *Pred, m, r Attrs, within bool) *Pred {
	var buf [8]*Pred // And copies what it keeps
	keep := buf[:0]
	for _, x := range [...]*Pred{p, q} {
		for _, c := range x.Conjuncts() {
			if c.RefersOnlyToEither(m, r) == within {
				keep = append(keep, c)
			}
		}
	}
	return And(keep...)
}

// JoinAssociates is the applicability test of join_assoc — the paper's
// is_associative — shared by every rule set that regroups joins:
// JOIN(JOIN(l, m), r) with predicates lower and upper may be regrouped as
// JOIN(l, JOIN(m, r)) when the conjuncts over m ∪ r connect m with r and
// the remaining ones reach l, so neither new join is a cross product. The
// conjuncts of lower and upper are walked where they stand: one goes
// inside when every attribute it names is in m or in r. It builds no
// conjunction, attribute union or split, and allocates nothing.
func JoinAssociates(lower, upper *Pred, l, m, r Attrs) bool {
	var innerM, innerR, outerL bool
	for _, p := range [...]*Pred{lower, upper} {
		for _, c := range p.Conjuncts() {
			if c.RefersOnlyToEither(m, r) {
				innerM, innerR = innerM || c.RefersToAny(m), innerR || c.RefersToAny(r)
			} else {
				outerL = outerL || c.RefersToAny(l)
			}
		}
	}
	return innerM && innerR && outerL
}
