// Package relopt implements the paper's running example: a centralized
// relational query optimizer over RET, JOIN and SORT (Table 1), with the
// algorithms File_scan, Index_scan, Nested_loops, Merge_join, Merge_sort
// and Null. It provides the optimizer twice:
//
//   - PrairieRules: the Prairie-language specification (see Spec) —
//     including the JOPR enforcer-introduction T-rule of footnote 5 and
//     the Null SORT rule of §2.5 — compiled by internal/prairielang and
//     merged by the P2V pre-processor into a compact Volcano rule set;
//   - VolcanoRules: the same optimizer hand-coded directly in the Volcano
//     format (explicit property classification and per-algorithm support
//     functions), the baseline of the experiment reported in [5].
//
// Both use the same cost model — the specification's helper functions
// call the functions the hand-coded rules call — so measured differences
// between them are attributable to the specification path alone.
package relopt

import (
	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/prairielang"
)

// Opt bundles the relational algebra, its property handles, and the
// catalog the cost model consults.
type Opt struct {
	Alg   *core.Algebra
	Cat   *catalog.Catalog
	rules *core.RuleSet // Spec, compiled by New

	// Property ids (Table 2 of the paper, plus "indexes" carrying the
	// catalog's index metadata on stored-file descriptors).
	Ord core.PropID // tuple_order
	JP  core.PropID // join_predicate
	SP  core.PropID // selection_predicate
	AT  core.PropID // attributes
	NR  core.PropID // num_records
	TS  core.PropID // tuple_size
	IX  core.PropID // indexes
	C   core.PropID // cost

	RET, JOIN, JOPR, SORT                              *core.Operation
	FileScan, IndexScan, NestedLoops, MergeJoin, Merge *core.Operation
	Null                                               *core.Operation
}

// New builds the relational optimizer over a catalog: it compiles Spec,
// whose declarations are the algebra the hand-coded rules and the
// specification's share, keeps the rule set for PrairieRules, and binds
// the handles to the compiled algebra.
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
// Shared cost model. Costs are abstract work units (tuples touched);
// both specification paths call exactly these functions. Scans and
// sorts are costed by the access-path model package catalog shares with
// the OODB optimizer.

func nestedLoopsCost(outerCost, outerCard, innerCost float64) float64 {
	return outerCost + outerCard*innerCost
}

func mergeJoinCost(lCost, rCost, lCard, rCard float64) float64 {
	return lCost + rCost + lCard + rCard
}

// isAssociative is the paper's "is_associative" helper (Figure 3): it
// checks that redistributing the predicates of two adjacent joins does
// not introduce a cross product. It returns the redistributed inner and
// outer predicates along with the verdict.
func isAssociative(all *core.Pred, leftAttrs, midAttrs, rightAttrs core.Attrs) (inner, outer *core.Pred, ok bool) {
	innerAttrs := midAttrs.Union(rightAttrs)
	inner, outer = all.SplitBy(innerAttrs)
	if len(inner.Attrs().Intersect(midAttrs)) == 0 || len(inner.Attrs().Intersect(rightAttrs)) == 0 {
		return nil, nil, false
	}
	if len(outer.Attrs().Intersect(leftAttrs)) == 0 {
		return nil, nil, false
	}
	return inner, outer, true
}

// orientEqui orients an equi-join term so the first attribute belongs to
// the side whose attribute set is leftAttrs. It reports failure for
// non-equi predicates or terms that do not span the two inputs.
func orientEqui(p *core.Pred, leftAttrs core.Attrs) (l, r core.Attr, ok bool) {
	if !p.IsEquiJoin() {
		return core.Attr{}, core.Attr{}, false
	}
	if leftAttrs.Contains(p.Left) {
		return p.Left, p.Right, true
	}
	if leftAttrs.Contains(p.Right) {
		return p.Right, p.Left, true
	}
	return core.Attr{}, core.Attr{}, false
}
