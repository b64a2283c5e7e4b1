// Package oodb reconstructs the Texas Instruments Open OODB query
// optimizer used in the paper's evaluation (Section 4): the
// object-oriented algebra SELECT, PROJECT, JOIN, RET, UNNEST and MAT
// (plus the SORT enforcer-operator), eight algorithms, and two complete
// specifications of the same optimizer over the one algebra Spec declares:
//
//   - PrairieRules: the Prairie-language specification (Spec) with 22
//     T-rules and 11 I-rules, compiled by internal/prairielang once per
//     Opt (New) and translated by internal/p2v;
//   - VolcanoRules: a hand-coded Volcano rule set with 17 trans_rules,
//     9 impl_rules and 1 enforcer — the same counts the paper reports.
//
// The original TI rule set is proprietary; this reconstruction satisfies
// every structural constraint the paper states (PROJECT appears in one
// impl_rule and no trans_rules, UNNEST in exactly one of each, the join
// algorithms use no indices, and the §3.3 merging arithmetic holds).
package oodb

import (
	"slices"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/prairielang"
)

// Opt bundles the OODB algebra, property handles, and catalog.
type Opt struct {
	Alg   *core.Algebra
	Cat   *catalog.Catalog
	rules *core.RuleSet // Spec, compiled by New

	Ord core.PropID // tuple_order
	JP  core.PropID // join_predicate
	SP  core.PropID // selection_predicate
	PA  core.PropID // projected_attributes
	MA  core.PropID // mat_attribute (the pointer attribute MAT follows)
	UA  core.PropID // unnest_attribute
	AT  core.PropID // attributes
	NR  core.PropID // num_records
	TS  core.PropID // tuple_size
	IX  core.PropID // indexes
	C   core.PropID // cost

	RET, JOIN, JOPR, SELECT, PROJECT, MAT, UNNEST, SORT      *core.Operation
	FileScan, IndexScan, Filter, Proj, HashJoin, PointerJoin *core.Operation
	Materialize, Flatten, MergeSort, Null                    *core.Operation
}

// New builds the OODB optimizer over a catalog: it compiles Spec, whose
// declarations are the algebra both specifications share, keeps the rule
// set for PrairieRules, and binds the handles to the compiled algebra.
func New(cat *catalog.Catalog) *Opt {
	o := &Opt{Cat: cat}
	rs, err := prairielang.ParseAndCompile(Spec, o.HelperImpls())
	if err != nil {
		panic(err) // Spec is a constant: only a bug in it fails to compile
	}
	o.rules = rs
	o.rebind(rs.Algebra)
	return o
}

// ---------------------------------------------------------------------------
// Predicate and attribute helpers shared by both specifications. They
// canonicalize conjunct order so that predicates produced along
// different rewrite paths compare equal, which the memo's duplicate
// detection relies on.

// canonAnd conjoins predicates with conjuncts sorted canonically: in the
// order of their renderings, which Pred.Compare reads without building.
func canonAnd(ps ...*core.Pred) *core.Pred { return canonical(core.And(ps...)) }

// canonical sorts the conjuncts of a conjunction core.And or
// core.SplitHalf has just built — its kids are its own — in place.
func canonical(p *core.Pred) *core.Pred {
	if p.Op == core.PredAnd {
		slices.SortFunc(p.Kids, (*core.Pred).Compare)
	}
	return p
}

// splitHalf is one half of the canonical split of canonAnd(p, q) by
// m.Union(r), built without either: the canonical conjunction of the
// conjuncts of p and q that refer only to attributes of m or r (within)
// or of the others. The Prairie specification's split_within and
// split_rest each need one.
func splitHalf(p, q *core.Pred, m, r core.Attrs, within bool) *core.Pred {
	return canonical(core.SplitHalf(p, q, m, r, within))
}

// firstConj returns the canonically-first conjunct; restConj the others.
func firstConj(p *core.Pred) *core.Pred {
	c := canonAnd(p).Conjuncts()
	if len(c) == 0 {
		return core.TruePred
	}
	return c[0]
}

func restConj(p *core.Pred) *core.Pred {
	c := canonAnd(p).Conjuncts()
	if len(c) <= 1 {
		return core.TruePred
	}
	return canonAnd(c[1:]...)
}

// refAttrOfJoin inspects a join predicate for the pointer-equality form
// "left.ref = right.id" (in either orientation) where ref is a pointer
// attribute of the left input whose target class owns the id. It returns
// the pointer attribute.
func (o *Opt) refAttrOfJoin(p *core.Pred, leftAttrs, rightAttrs core.Attrs) (core.Attr, bool) {
	if !p.IsEquiJoin() {
		return core.Attr{}, false
	}
	l, r := p.Left, p.Right
	if !leftAttrs.Contains(l) {
		l, r = r, l
	}
	if !leftAttrs.Contains(l) || !rightAttrs.Contains(r) {
		return core.Attr{}, false
	}
	at, ok := o.Cat.Attribute(l)
	if !ok || at.Ref == "" {
		return core.Attr{}, false
	}
	if r.Rel() != at.Ref || r.Name() != "id" {
		return core.Attr{}, false
	}
	return l, true
}

// matTarget resolves a MAT pointer attribute to its target class.
func (o *Opt) matTarget(ma core.Attrs) (*catalog.Class, bool) {
	if len(ma) != 1 {
		return nil, false
	}
	at, ok := o.Cat.Attribute(ma[0])
	if !ok || at.Ref == "" {
		return nil, false
	}
	return o.Cat.Class(at.Ref)
}

// CanonAnd is the exported canonical conjunction, used by workload
// generation so initial trees agree with rule-produced predicates.
func CanonAnd(ps ...*core.Pred) *core.Pred { return canonAnd(ps...) }

// MatTargetAttrs returns the attribute set MAT adds to its input.
func (o *Opt) MatTargetAttrs(ma core.Attrs) core.Attrs { return o.matTargetAttrs(ma) }

// MatTargetSize returns the tuple size MAT adds to its input.
func (o *Opt) MatTargetSize(ma core.Attrs) float64 { return o.matTargetSize(ma) }

// matTargetAttrs returns the attribute set MAT adds to its input.
func (o *Opt) matTargetAttrs(ma core.Attrs) core.Attrs {
	if t, ok := o.matTarget(ma); ok {
		return t.AttrSet()
	}
	return nil
}

// matTargetCard returns the target class's cardinality.
func (o *Opt) matTargetCard(ma core.Attrs) float64 {
	if t, ok := o.matTarget(ma); ok {
		return t.Card
	}
	return 1
}

// matTargetSize returns the target class's tuple size.
func (o *Opt) matTargetSize(ma core.Attrs) float64 {
	if t, ok := o.matTarget(ma); ok {
		return t.TupleSize
	}
	return 0
}

// unnestCard scales a cardinality by the set attribute's average size.
func (o *Opt) unnestCard(n float64, ua core.Attrs) float64 {
	if len(ua) == 1 {
		if at, ok := o.Cat.Attribute(ua[0]); ok && at.SetValued && at.SetSize > 0 {
			return n * at.SetSize
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Cost model (work units: tuples touched). Both specifications use
// exactly these formulas, so measured differences between them reflect
// the specification path only. Scans and sorts are costed by the
// access-path model package catalog shares with the relational
// optimizer.

func filterCost(inCost, inCard float64) float64 { return inCost + inCard }

func projectCost(inCost, inCard float64) float64 { return inCost + inCard }

// hashJoinCost builds a hash table on the right input and probes with
// the left.
func hashJoinCost(lCost, rCost, lCard, rCard float64) float64 {
	return lCost + rCost + lCard + 2*rCard
}

// pointerJoinCost batches the input's pointers and sweeps the target
// class once — cheap for large inputs.
func pointerJoinCost(inCost, inCard, targetCard float64) float64 {
	return inCost + 2*inCard + targetCard
}

// materializeCost chases one pointer per input tuple — cheap for small
// inputs (the Materialize/Pointer_join crossover the optimizer exploits).
func materializeCost(inCost, inCard float64) float64 {
	return inCost + 4*inCard
}

func flattenCost(inCost, outCard float64) float64 { return inCost + outCard }
