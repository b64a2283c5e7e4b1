package relopt

import (
	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/prairielang"
)

// HelperImpls returns the Go implementations of the helper functions the
// Prairie specification declares. They call the functions VolcanoRules
// calls, so the two optimizers compute bit-identical costs.
func (o *Opt) HelperImpls() map[string]prairielang.HelperImpl {
	attrs := func(v core.Value) core.Attrs { return v.(core.Attrs) }
	pred := func(v core.Value) *core.Pred { return v.(*core.Pred) }
	order := func(v core.Value) core.Order { return v.(core.Order) }
	num := func(v core.Value) float64 {
		if c, ok := v.(core.Cost); ok {
			return float64(c)
		}
		return float64(v.(core.Float))
	}
	orient := func(a []core.Value, right bool) (core.Value, error) {
		l, r, ok := orientEqui(pred(a[0]), attrs(a[1]))
		switch {
		case !ok:
			return core.DontCareOrder, nil
		case right:
			return core.OrderOn(r), nil
		}
		return core.OrderOn(l), nil
	}
	return map[string]prairielang.HelperImpl{
		"union": func(a []core.Value) (core.Value, error) {
			return attrs(a[0]).Union(attrs(a[1])), nil
		},
		"cardinality": func(a []core.Value) (core.Value, error) {
			return core.Float(o.Cat.JoinCard(num(a[0]), num(a[1]), pred(a[2]))), nil
		},
		"and_pred": func(a []core.Value) (core.Value, error) {
			return core.And(pred(a[0]), pred(a[1])), nil
		},
		"is_associative": func(a []core.Value) (core.Value, error) {
			return core.Bool(core.JoinAssociates(pred(a[0]), pred(a[1]), attrs(a[2]), attrs(a[3]), attrs(a[4]))), nil
		},
		"split_within": func(a []core.Value) (core.Value, error) {
			return core.SplitHalf(pred(a[0]), pred(a[1]), attrs(a[2]), true), nil
		},
		"split_rest": func(a []core.Value) (core.Value, error) {
			return core.SplitHalf(pred(a[0]), pred(a[1]), attrs(a[2]), false), nil
		},
		"is_equi_join": func(a []core.Value) (core.Value, error) {
			_, _, ok := orientEqui(pred(a[0]), attrs(a[1]))
			return core.Bool(ok), nil
		},
		"left_order":  func(a []core.Value) (core.Value, error) { return orient(a, false) },
		"right_order": func(a []core.Value) (core.Value, error) { return orient(a, true) },
		"has_index": func(a []core.Value) (core.Value, error) {
			return core.Bool(len(attrs(a[0])) > 0), nil
		},
		"index_order": func(a []core.Value) (core.Value, error) {
			ix, ok := catalog.PickIndexAttr(attrs(a[0]), order(a[1]), pred(a[2]))
			if !ok {
				return core.DontCareOrder, nil
			}
			return core.OrderOn(ix), nil
		},
		"index_usable": func(a []core.Value) (core.Value, error) {
			ix, _ := catalog.PickIndexAttr(attrs(a[0]), order(a[1]), pred(a[2]))
			return core.Bool(catalog.IndexUsable(ix, pred(a[2]))), nil
		},
		"order_within": func(a []core.Value) (core.Value, error) {
			return core.Bool(order(a[0]).Within(attrs(a[1]))), nil
		},
		"file_scan_cost": func(a []core.Value) (core.Value, error) {
			return core.Cost(catalog.FileScanCost(num(a[0]))), nil
		},
		"index_scan_cost": func(a []core.Value) (core.Value, error) {
			return core.Cost(catalog.IndexScanCost(num(a[0]), num(a[1]), bool(a[2].(core.Bool)))), nil
		},
		"nested_loops_cost": func(a []core.Value) (core.Value, error) {
			return core.Cost(nestedLoopsCost(num(a[0]), num(a[1]), num(a[2]))), nil
		},
		"merge_join_cost": func(a []core.Value) (core.Value, error) {
			return core.Cost(mergeJoinCost(num(a[0]), num(a[1]), num(a[2]), num(a[3]))), nil
		},
		"merge_sort_cost": func(a []core.Value) (core.Value, error) {
			return core.Cost(catalog.MergeSortCost(num(a[0]), num(a[1]))), nil
		},
	}
}

// PrairieRules returns the core rule set New compiled from the Prairie
// specification (Spec) over this optimizer's catalog.
func (o *Opt) PrairieRules() *core.RuleSet { return o.rules }

// rebind points the Opt's handles at the given algebra's instances.
func (o *Opt) rebind(a *core.Algebra) {
	o.Alg = a
	o.Ord = a.Props.MustLookup("tuple_order")
	o.JP = a.Props.MustLookup("join_predicate")
	o.SP = a.Props.MustLookup("selection_predicate")
	o.AT = a.Props.MustLookup("attributes")
	o.NR = a.Props.MustLookup("num_records")
	o.TS = a.Props.MustLookup("tuple_size")
	o.IX = a.Props.MustLookup("indexes")
	o.C = a.Props.MustLookup("cost")
	o.RET = a.MustOp("RET")
	o.JOIN = a.MustOp("JOIN")
	o.JOPR = a.MustOp("JOPR")
	o.SORT = a.MustOp("SORT")
	o.FileScan = a.MustOp("File_scan")
	o.IndexScan = a.MustOp("Index_scan")
	o.NestedLoops = a.MustOp("Nested_loops")
	o.MergeJoin = a.MustOp("Merge_join")
	o.Merge = a.MustOp("Merge_sort")
	o.Null = a.Null()
}
