package oodb

import (
	"math"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/prairielang"
)

// HelperImpls returns the Go implementations of the helper functions the
// Prairie specification declares. Helpers capture the catalog, exactly
// as the Open OODB's support functions consult its catalogs.
func (o *Opt) HelperImpls() map[string]prairielang.HelperImpl {
	attrs := func(v core.Value) core.Attrs { return v.(core.Attrs) }
	pred := func(v core.Value) *core.Pred { return v.(*core.Pred) }
	num := func(v core.Value) float64 { return float64(v.(core.Float)) }
	return map[string]prairielang.HelperImpl{
		"union": func(a []core.Value) (core.Value, error) {
			return attrs(a[0]).Union(attrs(a[1])), nil
		},
		"contains_all": func(a []core.Value) (core.Value, error) {
			return core.Bool(attrs(a[0]).ContainsAll(attrs(a[1]))), nil
		},
		"attrs_eq": func(a []core.Value) (core.Value, error) {
			return core.Bool(a[0].Equal(a[1])), nil
		},
		"and_pred": func(a []core.Value) (core.Value, error) {
			return canonAnd(pred(a[0]), pred(a[1])), nil
		},
		"split_within": func(a []core.Value) (core.Value, error) {
			return splitHalf(pred(a[0]), pred(a[1]), attrs(a[2]), true), nil
		},
		"split_rest": func(a []core.Value) (core.Value, error) {
			return splitHalf(pred(a[0]), pred(a[1]), attrs(a[2]), false), nil
		},
		"refers_only": func(a []core.Value) (core.Value, error) {
			return core.Bool(pred(a[0]).RefersOnlyTo(attrs(a[1]))), nil
		},
		"refers_only_either": func(a []core.Value) (core.Value, error) {
			return core.Bool(pred(a[0]).RefersOnlyToEither(attrs(a[1]), attrs(a[2]))), nil
		},
		"conj_count": func(a []core.Value) (core.Value, error) {
			return core.Float(len(pred(a[0]).Conjuncts())), nil
		},
		"first_conj": func(a []core.Value) (core.Value, error) {
			return firstConj(pred(a[0])), nil
		},
		"rest_conj": func(a []core.Value) (core.Value, error) {
			return restConj(pred(a[0])), nil
		},
		"is_assoc": func(a []core.Value) (core.Value, error) {
			return core.Bool(core.JoinAssociates(pred(a[0]), pred(a[1]), attrs(a[2]), attrs(a[3]), attrs(a[4]))), nil
		},
		"join_card": func(a []core.Value) (core.Value, error) {
			return core.Float(o.Cat.JoinCard(num(a[0]), num(a[1]), pred(a[2]))), nil
		},
		"sel_card": func(a []core.Value) (core.Value, error) {
			return core.Float(o.Cat.SelectCard(num(a[0]), pred(a[1]))), nil
		},
		"is_ref_join": func(a []core.Value) (core.Value, error) {
			_, ok := o.refAttrOfJoin(pred(a[0]), attrs(a[1]), attrs(a[2]))
			return core.Bool(ok), nil
		},
		"ref_of": func(a []core.Value) (core.Value, error) {
			// The rule's test already established the join is a pointer
			// join; on a TRUE predicate (no pointer) return empty.
			if r, ok := o.refAttrAnywhere(pred(a[0]), attrs(a[1])); ok {
				return core.Attrs{r}, nil
			}
			return core.Attrs(nil), nil
		},
		"is_true_pred": func(a []core.Value) (core.Value, error) {
			return core.Bool(pred(a[0]).IsTrue()), nil
		},
		"mat_attrs": func(a []core.Value) (core.Value, error) {
			return o.matTargetAttrs(attrs(a[0])), nil
		},
		"mat_card": func(a []core.Value) (core.Value, error) {
			return core.Float(o.matTargetCard(attrs(a[0]))), nil
		},
		"mat_size": func(a []core.Value) (core.Value, error) {
			return core.Float(o.matTargetSize(attrs(a[0]))), nil
		},
		"unnest_card": func(a []core.Value) (core.Value, error) {
			return core.Float(o.unnestCard(num(a[0]), attrs(a[1]))), nil
		},
		"has_index": func(a []core.Value) (core.Value, error) {
			return core.Bool(len(attrs(a[0])) > 0), nil
		},
		"has_probe_index": func(a []core.Value) (core.Value, error) {
			ix, ok := catalog.PickIndexAttr(attrs(a[0]), core.DontCareOrder, pred(a[1]))
			return core.Bool(ok && catalog.IndexUsable(ix, pred(a[1]))), nil
		},
		"probe_order": func(a []core.Value) (core.Value, error) {
			ix, ok := catalog.PickIndexAttr(attrs(a[0]), core.DontCareOrder, pred(a[1]))
			if !ok {
				return core.DontCareOrder, nil
			}
			return core.OrderOn(ix), nil
		},
		"sweep_order": func(a []core.Value) (core.Value, error) {
			want, _ := a[1].(core.Order)
			ix, ok := catalog.PickIndexAttr(attrs(a[0]), want, core.TruePred)
			if !ok {
				return core.DontCareOrder, nil
			}
			return core.OrderOn(ix), nil
		},
		"order_within": func(a []core.Value) (core.Value, error) {
			ord, _ := a[0].(core.Order)
			return core.Bool(ord.Within(attrs(a[1]))), nil
		},
		"nlogn": func(a []core.Value) (core.Value, error) {
			n := math.Max(num(a[0]), 1)
			return core.Float(n * math.Log2(n+1)), nil
		},
	}
}

// refAttrAnywhere finds any pointer attribute referenced by the
// predicate within the given attribute set; it backs ref_of's fallback.
func (o *Opt) refAttrAnywhere(p *core.Pred, within core.Attrs) (core.Attr, bool) {
	for _, a := range p.Attrs() {
		if !within.Contains(a) {
			continue
		}
		if at, ok := o.Cat.Attribute(a); ok && at.Ref != "" {
			return a, true
		}
	}
	return core.Attr{}, false
}

// PrairieRules returns the core rule set New compiled from the
// Prairie-language specification (Spec) over this optimizer's catalog.
func (o *Opt) PrairieRules() *core.RuleSet { return o.rules }

// WithoutSpec returns a copy of o that drops the compiled specification
// (its PrairieRules is nil) and keeps the rest: the algebra, the catalog
// and the handles are all the hand-coded rules read, so a long-lived
// holder of VolcanoRules need not keep the rule set New compiled alive.
func (o *Opt) WithoutSpec() *Opt {
	c := *o
	c.rules = nil
	return &c
}

// rebind points the Opt's handles at the given algebra's instances.
func (o *Opt) rebind(a *core.Algebra) {
	o.Alg = a
	o.Ord = a.Props.MustLookup("tuple_order")
	o.JP = a.Props.MustLookup("join_predicate")
	o.SP = a.Props.MustLookup("selection_predicate")
	o.PA = a.Props.MustLookup("projected_attributes")
	o.MA = a.Props.MustLookup("mat_attribute")
	o.UA = a.Props.MustLookup("unnest_attribute")
	o.AT = a.Props.MustLookup("attributes")
	o.NR = a.Props.MustLookup("num_records")
	o.TS = a.Props.MustLookup("tuple_size")
	o.IX = a.Props.MustLookup("indexes")
	o.C = a.Props.MustLookup("cost")
	o.RET = a.MustOp("RET")
	o.JOIN = a.MustOp("JOIN")
	o.JOPR = a.MustOp("JOPR")
	o.SELECT = a.MustOp("SELECT")
	o.PROJECT = a.MustOp("PROJECT")
	o.MAT = a.MustOp("MAT")
	o.UNNEST = a.MustOp("UNNEST")
	o.SORT = a.MustOp("SORT")
	o.FileScan = a.MustOp("File_scan")
	o.IndexScan = a.MustOp("Index_scan")
	o.Filter = a.MustOp("Filter")
	o.Proj = a.MustOp("Project")
	o.HashJoin = a.MustOp("Hash_join")
	o.PointerJoin = a.MustOp("Pointer_join")
	o.Materialize = a.MustOp("Materialize")
	o.Flatten = a.MustOp("Flatten")
	o.MergeSort = a.MustOp("Merge_sort")
	o.Null = a.Null()
}
