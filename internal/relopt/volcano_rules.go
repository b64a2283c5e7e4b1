package relopt

import (
	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/volcano"
)

// VolcanoRules builds the hand-coded Volcano specification of the same
// optimizer: the property classification is stated explicitly (the user
// must decide that tuple_order is physical and cost is cost, §3.1), the
// JOPR/SORT machinery is absent (Volcano's enforcer concept, gated by the
// engine, replaces it), and trans_rules are core actions and support
// functions cost in a binding the engine lends (ImplCtx.Lend), as P2V's
// generated hooks do. This is the baseline the Prairie-generated
// optimizer is compared with. No operator of the
// algebra declares args(...), so every property a trans_rule assigns
// identifies the expression it builds: join_assoc, like its generated
// counterpart, defers nothing (TransRule.Rest).
func (o *Opt) VolcanoRules() *volcano.RuleSet {
	rs := volcano.NewRuleSet(o.Alg)
	rs.SetPhys(o.Ord)
	// Every costing rule's Frame: the algorithm's descriptor, a copy of
	// the operator's, and the inputs' requirements; nil requires nothing.
	costing := &core.Frame{Names: []string{"alg", "left", "right"}}
	lend := func(cx *volcano.ImplCtx) (*core.Binding, *core.Descriptor) {
		b := cx.Lend()
		d := b.Slot(0)
		d.CopyFrom(cx.OpDesc)
		return b, d
	}

	rs.AddTrans(&volcano.TransRule{
		Name: "join_commute",
		LHS:  core.POp(o.JOIN, "D3", core.PVar(1, ""), core.PVar(2, "")),
		RHS:  core.POp(o.JOIN, "D4", core.PVar(2, ""), core.PVar(1, "")),
		Appl: func(b *core.Binding) { b.D("D4").CopyFrom(b.D("D3")) },
		// Commuting a commuted join gives back the join.
		Involution: true,
	})

	rs.AddTrans(&volcano.TransRule{
		Name: "join_assoc",
		LHS: core.POp(o.JOIN, "D5",
			core.POp(o.JOIN, "D3", core.PVar(1, "D1"), core.PVar(2, "D2")),
			core.PVar(3, "D4")),
		RHS: core.POp(o.JOIN, "D7",
			core.PVar(1, ""),
			core.POp(o.JOIN, "D6", core.PVar(2, ""), core.PVar(3, ""))),
		Cond: func(b *core.Binding) bool {
			return core.JoinAssociates(b.D("D3").Pred(o.JP), b.D("D5").Pred(o.JP),
				b.D("D1").AttrList(o.AT), b.D("D2").AttrList(o.AT), b.D("D4").AttrList(o.AT))
		},
		Appl: func(b *core.Binding) {
			lower, upper := b.D("D3").Pred(o.JP), b.D("D5").Pred(o.JP)
			d6, d7 := b.D("D6"), b.D("D7")
			at := b.D("D2").AttrList(o.AT).Union(b.D("D4").AttrList(o.AT))
			inner, outer := core.SplitHalf(lower, upper, at, true), core.SplitHalf(lower, upper, at, false)
			d6.Set(o.AT, at)
			d6.Set(o.JP, inner)
			d6.SetFloat(o.NR, o.Cat.JoinCard(b.D("D2").Float(o.NR), b.D("D4").Float(o.NR), inner))
			d6.SetFloat(o.TS, b.D("D2").Float(o.TS)+b.D("D4").Float(o.TS))
			d7.CopyFrom(b.D("D5"))
			d7.Set(o.JP, outer)
		},
	})

	// RET -> File_scan.
	rs.AddImpl(&volcano.ImplRule{
		Name: "ret_file_scan", Op: o.RET, Alg: o.FileScan, Frame: costing,
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			_, d := lend(cx)
			d.Set(o.Ord, core.DontCareOrder)
			return d, nil
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.C, core.Cost(catalog.FileScanCost(cx.In[0].Float(o.NR))))
		},
	})

	// RET -> Index_scan.
	rs.AddImpl(&volcano.ImplRule{
		Name: "ret_index_scan", Op: o.RET, Alg: o.IndexScan, Frame: costing,
		Cond: func(cx *volcano.ImplCtx) bool {
			return len(cx.Kids[0].AttrList(o.IX)) > 0
		},
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			_, d := lend(cx)
			ix, ok := catalog.PickIndexAttr(cx.Kids[0].AttrList(o.IX), cx.OpDesc.Order(o.Ord), cx.OpDesc.Pred(o.SP))
			if ok {
				d.Set(o.Ord, core.OrderOn(ix))
			} else {
				d.Set(o.Ord, core.DontCareOrder)
			}
			return d, nil
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			ix, _ := catalog.PickIndexAttr(cx.In[0].AttrList(o.IX), cx.OpDesc.Order(o.Ord), cx.OpDesc.Pred(o.SP))
			usable := catalog.IndexUsable(ix, cx.OpDesc.Pred(o.SP))
			d.Set(o.C, core.Cost(catalog.IndexScanCost(cx.In[0].Float(o.NR), d.Float(o.NR), usable)))
		},
	})

	// JOIN -> Nested_loops.
	rs.AddImpl(&volcano.ImplRule{
		Name: "join_nested_loops", Op: o.JOIN, Alg: o.NestedLoops, Frame: costing,
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			b, d := lend(cx)
			cx.InReq[0] = b.Slot(1)
			cx.InReq[0].Set(o.Ord, cx.OpDesc.Order(o.Ord))
			return d, cx.InReq
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.Ord, cx.In[0].Order(o.Ord))
			d.Set(o.C, core.Cost(nestedLoopsCost(
				cx.In[0].Float(o.C), cx.In[0].Float(o.NR), cx.In[1].Float(o.C))))
		},
	})

	// JOIN -> Merge_join.
	rs.AddImpl(&volcano.ImplRule{
		Name: "join_merge_join", Op: o.JOIN, Alg: o.MergeJoin, Frame: costing,
		Cond: func(cx *volcano.ImplCtx) bool {
			_, _, ok := orientEqui(cx.OpDesc.Pred(o.JP), cx.Kids[0].AttrList(o.AT))
			return ok
		},
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			l, r, _ := orientEqui(cx.OpDesc.Pred(o.JP), cx.Kids[0].AttrList(o.AT))
			b, d := lend(cx)
			d.Set(o.Ord, core.OrderOn(l))
			cx.InReq[0], cx.InReq[1] = b.Slot(1), b.Slot(2)
			cx.InReq[0].Set(o.Ord, core.OrderOn(l))
			cx.InReq[1].Set(o.Ord, core.OrderOn(r))
			return d, cx.InReq
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.C, core.Cost(mergeJoinCost(
				cx.In[0].Float(o.C), cx.In[1].Float(o.C),
				cx.In[0].Float(o.NR), cx.In[1].Float(o.NR))))
		},
	})

	// Merge_sort enforcer.
	rs.AddEnforcer(&volcano.Enforcer{
		Name: "sort_merge_sort", Alg: o.Merge, Props: []core.PropID{o.Ord}, Frame: costing,
		Cond: func(cx *volcano.ImplCtx) bool {
			return cx.Req.Order(o.Ord).Within(cx.OpDesc.AttrList(o.AT))
		},
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, *core.Descriptor) {
			_, d := lend(cx)
			d.Set(o.Ord, cx.Req.Order(o.Ord))
			return d, nil
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.C, core.Cost(catalog.MergeSortCost(cx.In[0].Float(o.C), d.Float(o.NR))))
		},
	})

	return rs
}
