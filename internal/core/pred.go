package core

import (
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
// And() with no live terms returns TruePred.
func And(ps ...*Pred) *Pred {
	var kids []*Pred
	for _, p := range ps {
		switch {
		case p == nil || p.Op == PredTrue:
		case p.Op == PredAnd:
			kids = append(kids, p.Kids...)
		default:
			kids = append(kids, p)
		}
	}
	switch len(kids) {
	case 0:
		return TruePred
	case 1:
		return kids[0]
	}
	return &Pred{Op: PredAnd, Kids: kids}
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

// String implements Value.
func (p *Pred) String() string {
	if p == nil {
		return "TRUE"
	}
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
	default:
		rhs := ""
		if p.AttrCmp {
			rhs = p.Right.String()
		} else if p.Const != nil {
			rhs = p.Const.String()
		}
		// Concatenation, not fmt: canonical conjunct ordering renders
		// every conjunct of every predicate the rules build.
		l := p.Left.entry()
		return l.rel + "." + l.name + " " + p.Op.String() + " " + rhs
	}
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
