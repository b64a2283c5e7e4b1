package oodb

import (
	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/volcano"
)

// VolcanoRules builds the hand-coded Volcano specification of the Open
// OODB optimizer: 17 trans_rules, 9 impl_rules and one enforcer, with
// the property classification stated explicitly and per-algorithm
// support functions. It is the baseline the Prairie-generated optimizer
// is measured against (§4.3), using the engine as generated code does:
// trans_rules are core actions deferring what only a new expression needs
// (TransRule.Rest), costing hooks borrow a binding laid out by their
// rule's Frame (ImplCtx.Lend), and the engine gates the enforcer.
func (o *Opt) VolcanoRules() *volcano.RuleSet {
	rs := volcano.NewRuleSet(o.Alg)
	rs.SetPhys(o.Ord)
	o.addTransRules(rs)
	o.addImplRules(rs)
	return rs
}

func (o *Opt) addTransRules(rs *volcano.RuleSet) {
	v1, v2, v3 := core.PVar(1, "D1"), core.PVar(2, "D2"), core.PVar(3, "D3")

	// Each rule's Appl leaves the identity properties of the nodes it
	// builds final — the whole-descriptor copies and the join_predicate,
	// selection_predicate, mat_attribute and unnest_attribute assignments
	// — and its Rest computes the attributes, num_records and tuple_size
	// that only an expression the memo keeps needs (TransRule.Rest). Its
	// RestRoot names those Rest writes on the right side's root, and its
	// Keeps the nodes whose identity Appl copies from a left-side node of
	// the same operator, as P2V names them for the Prairie rule of the
	// same name.

	// --- JOIN space (2 rules). ------------------------------------------
	rs.AddTrans(&volcano.TransRule{
		Name:  "join_commute",
		LHS:   core.POp(o.JOIN, "DL", v1, v2),
		RHS:   core.POp(o.JOIN, "DR", core.PVar(2, ""), core.PVar(1, "")),
		Appl:  func(b *core.Binding) { b.D("DR").CopyFrom(b.D("DL")) },
		Keeps: []core.Keep{{RHS: "DR", LHS: "DL"}},
		// Commuting a commuted join gives back the join.
		Involution: true,
	})
	rs.AddTrans(&volcano.TransRule{
		Name: "join_assoc",
		LHS: core.POp(o.JOIN, "DT",
			core.POp(o.JOIN, "DB", v1, v2), v3),
		RHS: core.POp(o.JOIN, "DT2",
			core.PVar(1, ""),
			core.POp(o.JOIN, "DB2", core.PVar(2, ""), core.PVar(3, ""))),
		Cond: func(b *core.Binding) bool {
			return core.JoinAssociates(b.D("DB").Pred(o.JP), b.D("DT").Pred(o.JP),
				b.D("D1").AttrList(o.AT), b.D("D2").AttrList(o.AT), b.D("D3").AttrList(o.AT))
		},
		Appl: func(b *core.Binding) {
			lower, upper := b.D("DB").Pred(o.JP), b.D("DT").Pred(o.JP)
			m, r := b.D("D2").AttrList(o.AT), b.D("D3").AttrList(o.AT)
			dt2 := b.D("DT2")
			b.D("DB2").Set(o.JP, splitHalf(lower, upper, m, r, true))
			dt2.CopyFrom(b.D("DT"))
			dt2.Set(o.JP, splitHalf(lower, upper, m, r, false))
		},
		Rest: func(b *core.Binding) {
			m, r, db2 := b.D("D2"), b.D("D3"), b.D("DB2")
			db2.Set(o.AT, m.AttrList(o.AT).Union(r.AttrList(o.AT)))
			db2.SetFloat(o.NR, o.Cat.JoinCard(m.Float(o.NR), r.Float(o.NR), db2.Pred(o.JP)))
			db2.SetFloat(o.TS, m.Float(o.TS)+r.Float(o.TS))
		},
	})

	// --- SELECT space (7 rules + mat_pull_select). ------------------------
	pushJoin := func(name string, left bool) {
		side := "D1"
		rhsKids := []*core.PatNode{core.POp(o.SELECT, "DS", core.PVar(1, "")), core.PVar(2, "")}
		if !left {
			side = "D2"
			rhsKids = []*core.PatNode{core.PVar(1, ""), core.POp(o.SELECT, "DS", core.PVar(2, ""))}
		}
		rs.AddTrans(&volcano.TransRule{
			Name: name,
			LHS:  core.POp(o.SELECT, "DSEL", core.POp(o.JOIN, "DJ", v1, v2)),
			RHS:  core.POp(o.JOIN, "DJ2", rhsKids...),
			Cond: func(b *core.Binding) bool {
				return b.D("DSEL").Pred(o.SP).RefersOnlyTo(b.D(side).AttrList(o.AT))
			},
			Appl: func(b *core.Binding) {
				ds := b.D("DS")
				ds.CopyFrom(b.D(side))
				ds.Set(o.SP, b.D("DSEL").Pred(o.SP))
				b.D("DJ2").CopyFrom(b.D("DJ"))
			},
			Rest: func(b *core.Binding) {
				b.D("DS").SetFloat(o.NR, o.Cat.SelectCard(b.D(side).Float(o.NR), b.D("DSEL").Pred(o.SP)))
				b.D("DJ2").SetFloat(o.NR, b.D("DSEL").Float(o.NR))
			},
			RestRoot: []core.PropID{o.NR},
			Keeps:    []core.Keep{{RHS: "DJ2", LHS: "DJ"}, {RHS: "DS", LHS: "DSEL"}},
		})
	}
	pushJoin("select_push_join_left", true)
	pushJoin("select_push_join_right", false)

	rs.AddTrans(&volcano.TransRule{
		Name: "select_split",
		LHS:  core.POp(o.SELECT, "DS", v1),
		RHS:  core.POp(o.SELECT, "DO", core.POp(o.SELECT, "DI", core.PVar(1, ""))),
		Cond: func(b *core.Binding) bool {
			return len(b.D("DS").Pred(o.SP).Conjuncts()) >= 2
		},
		Appl: func(b *core.Binding) {
			p := b.D("DS").Pred(o.SP)
			di, do := b.D("DI"), b.D("DO")
			di.CopyFrom(b.D("DS"))
			di.Set(o.SP, restConj(p))
			do.CopyFrom(b.D("DS"))
			do.Set(o.SP, firstConj(p))
		},
		Rest: func(b *core.Binding) {
			di := b.D("DI")
			di.SetFloat(o.NR, o.Cat.SelectCard(b.D("D1").Float(o.NR), di.Pred(o.SP)))
		},
	})
	rs.AddTrans(&volcano.TransRule{
		Name: "select_merge",
		LHS:  core.POp(o.SELECT, "DO", core.POp(o.SELECT, "DI", v1)),
		RHS:  core.POp(o.SELECT, "DM", core.PVar(1, "")),
		Appl: func(b *core.Binding) {
			dm := b.D("DM")
			dm.CopyFrom(b.D("DO"))
			dm.Set(o.SP, canonAnd(b.D("DO").Pred(o.SP), b.D("DI").Pred(o.SP)))
		},
	})
	rs.AddTrans(&volcano.TransRule{
		Name: "select_commute",
		LHS:  core.POp(o.SELECT, "DO", core.POp(o.SELECT, "DI", v1)),
		RHS:  core.POp(o.SELECT, "DO2", core.POp(o.SELECT, "DI2", core.PVar(1, ""))),
		Appl: func(b *core.Binding) {
			di2, do2 := b.D("DI2"), b.D("DO2")
			di2.CopyFrom(b.D("DI"))
			di2.Set(o.SP, b.D("DO").Pred(o.SP))
			do2.CopyFrom(b.D("DO"))
			do2.Set(o.SP, b.D("DI").Pred(o.SP))
		},
		Rest: func(b *core.Binding) {
			b.D("DI2").SetFloat(o.NR, o.Cat.SelectCard(b.D("D1").Float(o.NR), b.D("DO").Pred(o.SP)))
		},
		Keeps: []core.Keep{{RHS: "DO2", LHS: "DI"}, {RHS: "DI2", LHS: "DO"}},
	})
	rs.AddTrans(&volcano.TransRule{
		Name: "select_into_ret",
		LHS:  core.POp(o.SELECT, "DS", core.POp(o.RET, "DR", v1)),
		RHS:  core.POp(o.RET, "DR2", core.PVar(1, "")),
		Appl: func(b *core.Binding) {
			dr2 := b.D("DR2")
			dr2.CopyFrom(b.D("DR"))
			dr2.Set(o.SP, canonAnd(b.D("DR").Pred(o.SP), b.D("DS").Pred(o.SP)))
		},
		Rest:     func(b *core.Binding) { b.D("DR2").SetFloat(o.NR, b.D("DS").Float(o.NR)) },
		RestRoot: []core.PropID{o.NR},
	})
	rs.AddTrans(&volcano.TransRule{
		Name: "select_push_mat",
		LHS:  core.POp(o.SELECT, "DS", core.POp(o.MAT, "DM", v1)),
		RHS:  core.POp(o.MAT, "DM2", core.POp(o.SELECT, "DS2", core.PVar(1, ""))),
		Cond: func(b *core.Binding) bool {
			return b.D("DS").Pred(o.SP).RefersOnlyTo(b.D("D1").AttrList(o.AT))
		},
		Appl: func(b *core.Binding) {
			ds2 := b.D("DS2")
			ds2.CopyFrom(b.D("D1"))
			ds2.Set(o.SP, b.D("DS").Pred(o.SP))
			b.D("DM2").CopyFrom(b.D("DM"))
		},
		Rest: func(b *core.Binding) {
			b.D("DS2").SetFloat(o.NR, o.Cat.SelectCard(b.D("D1").Float(o.NR), b.D("DS").Pred(o.SP)))
			b.D("DM2").SetFloat(o.NR, b.D("DS").Float(o.NR))
		},
		RestRoot: []core.PropID{o.NR},
		Keeps:    []core.Keep{{RHS: "DM2", LHS: "DM"}, {RHS: "DS2", LHS: "DS"}},
	})
	rs.AddTrans(&volcano.TransRule{
		Name: "mat_pull_select",
		LHS:  core.POp(o.MAT, "DM", core.POp(o.SELECT, "DS", v1)),
		RHS:  core.POp(o.SELECT, "DS2", core.POp(o.MAT, "DM2", core.PVar(1, ""))),
		Appl: func(b *core.Binding) {
			ds2 := b.D("DS2")
			b.D("DM2").CopyFrom(b.D("DM"))
			ds2.CopyFrom(b.D("DM"))
			ds2.Set(o.SP, b.D("DS").Pred(o.SP))
		},
		Rest: func(b *core.Binding) {
			dm2, d1 := b.D("DM2"), b.D("D1")
			dm2.Set(o.AT, d1.AttrList(o.AT).Union(o.matTargetAttrs(b.D("DM").AttrList(o.MA))))
			dm2.SetFloat(o.NR, d1.Float(o.NR))
		},
		Keeps: []core.Keep{{RHS: "DS2", LHS: "DS"}, {RHS: "DM2", LHS: "DM"}},
	})

	// --- MAT space (6 rules). ---------------------------------------------
	matPushJoin := func(name string, left bool) {
		side := "D1"
		rhsKids := []*core.PatNode{core.POp(o.MAT, "DM2", core.PVar(1, "")), core.PVar(2, "")}
		if !left {
			side = "D2"
			rhsKids = []*core.PatNode{core.PVar(1, ""), core.POp(o.MAT, "DM2", core.PVar(2, ""))}
		}
		rs.AddTrans(&volcano.TransRule{
			Name: name,
			LHS:  core.POp(o.MAT, "DM", core.POp(o.JOIN, "DJ", v1, v2)),
			RHS:  core.POp(o.JOIN, "DJ2", rhsKids...),
			Cond: func(b *core.Binding) bool {
				return b.D(side).AttrList(o.AT).ContainsAll(b.D("DM").AttrList(o.MA))
			},
			Appl: func(b *core.Binding) {
				b.D("DM2").CopyFrom(b.D("DM"))
				b.D("DJ2").CopyFrom(b.D("DJ"))
			},
			Rest: func(b *core.Binding) {
				ma := b.D("DM").AttrList(o.MA)
				dm2, dj2, in := b.D("DM2"), b.D("DJ2"), b.D(side)
				dm2.Set(o.AT, in.AttrList(o.AT).Union(o.matTargetAttrs(ma)))
				dm2.SetFloat(o.NR, in.Float(o.NR))
				dm2.SetFloat(o.TS, in.Float(o.TS)+o.matTargetSize(ma))
				dj2.Set(o.AT, b.D("DM").AttrList(o.AT))
				dj2.SetFloat(o.TS, b.D("DJ").Float(o.TS)+o.matTargetSize(ma))
			},
			RestRoot: []core.PropID{o.AT, o.TS},
			Keeps:    []core.Keep{{RHS: "DJ2", LHS: "DJ"}, {RHS: "DM2", LHS: "DM"}},
			// The pull rules rebuild from a pushed-down tree everything
			// a push would: the push rules rewrite the query instead.
			Normalize: true,
		})
	}
	matPushJoin("mat_push_join_left", true)
	matPushJoin("mat_push_join_right", false)

	matPullJoin := func(name string, left bool) {
		lhsKids, other := []*core.PatNode{core.POp(o.MAT, "DM", v1), v3}, "D3"
		if !left {
			lhsKids, other = []*core.PatNode{v1, core.POp(o.MAT, "DM", v2)}, "D2"
		}
		rhsKids := []*core.PatNode{core.PVar(1, ""), core.PVar(3, "")}
		if !left {
			rhsKids = []*core.PatNode{core.PVar(1, ""), core.PVar(2, "")}
		}
		rs.AddTrans(&volcano.TransRule{
			Name: name,
			LHS:  core.POp(o.JOIN, "DJ", lhsKids...),
			RHS:  core.POp(o.MAT, "DM2", core.POp(o.JOIN, "DJ2", rhsKids...)),
			Cond: func(b *core.Binding) bool {
				return b.D("DJ").Pred(o.JP).RefersOnlyToEither(b.D("D1").AttrList(o.AT), b.D(other).AttrList(o.AT))
			},
			Appl: func(b *core.Binding) {
				b.D("DJ2").CopyFrom(b.D("DJ"))
				b.D("DM2").CopyFrom(b.D("DM"))
			},
			Rest: func(b *core.Binding) {
				dj, dj2, dm2 := b.D("DJ"), b.D("DJ2"), b.D("DM2")
				dj2.Set(o.AT, b.D("D1").AttrList(o.AT).Union(b.D(other).AttrList(o.AT)))
				dj2.SetFloat(o.TS, dj.Float(o.TS)-o.matTargetSize(b.D("DM").AttrList(o.MA)))
				dm2.Set(o.AT, dj.AttrList(o.AT))
				dm2.SetFloat(o.NR, dj.Float(o.NR))
				dm2.SetFloat(o.TS, dj.Float(o.TS))
			},
			RestRoot: []core.PropID{o.AT, o.NR, o.TS},
			Keeps:    []core.Keep{{RHS: "DM2", LHS: "DM"}, {RHS: "DJ2", LHS: "DJ"}},
		})
	}
	matPullJoin("mat_pull_join_left", true)
	matPullJoin("mat_pull_join_right", false)

	rs.AddTrans(&volcano.TransRule{
		Name: "mat_commute_mat",
		LHS:  core.POp(o.MAT, "DO", core.POp(o.MAT, "DI", v1)),
		RHS:  core.POp(o.MAT, "DO2", core.POp(o.MAT, "DI2", core.PVar(1, ""))),
		Cond: func(b *core.Binding) bool {
			return !b.D("DI").AttrList(o.MA).Equal(b.D("DO").AttrList(o.MA)) &&
				b.D("D1").AttrList(o.AT).ContainsAll(b.D("DO").AttrList(o.MA))
		},
		Appl: func(b *core.Binding) {
			di2, do2 := b.D("DI2"), b.D("DO2")
			di2.CopyFrom(b.D("DI"))
			di2.Set(o.MA, b.D("DO").Get(o.MA))
			do2.CopyFrom(b.D("DO"))
			do2.Set(o.MA, b.D("DI").Get(o.MA))
		},
		Rest: func(b *core.Binding) {
			di2, d1 := b.D("DI2"), b.D("D1")
			outerMA := di2.AttrList(o.MA)
			di2.Set(o.AT, d1.AttrList(o.AT).Union(o.matTargetAttrs(outerMA)))
			di2.SetFloat(o.TS, d1.Float(o.TS)+o.matTargetSize(outerMA))
			// As in the Prairie rule, the outer MAT restates the
			// attributes and width it produces — what its group holds.
			do2, do := b.D("DO2"), b.D("DO")
			do2.Set(o.AT, do.Get(o.AT))
			do2.Set(o.TS, do.Get(o.TS))
		},
		RestRoot: []core.PropID{o.AT, o.TS},
		Keeps:    []core.Keep{{RHS: "DO2", LHS: "DI"}, {RHS: "DI2", LHS: "DO"}},
	})
	rs.AddTrans(&volcano.TransRule{
		Name: "join_to_mat",
		LHS: core.POp(o.JOIN, "DJ",
			v1, core.POp(o.RET, "DR", core.PVar(2, ""))),
		RHS: core.POp(o.MAT, "DM", core.PVar(1, "")),
		Cond: func(b *core.Binding) bool {
			_, ok := o.refAttrOfJoin(b.D("DJ").Pred(o.JP),
				b.D("D1").AttrList(o.AT), b.D("DR").AttrList(o.AT))
			return ok && b.D("DR").Pred(o.SP).IsTrue()
		},
		Appl: func(b *core.Binding) {
			ref, _ := o.refAttrOfJoin(b.D("DJ").Pred(o.JP),
				b.D("D1").AttrList(o.AT), b.D("DR").AttrList(o.AT))
			dm := b.D("DM")
			dm.CopyFrom(b.D("DJ"))
			dm.Set(o.MA, core.Attrs{ref})
		},
		Rest:     func(b *core.Binding) { b.D("DM").SetFloat(o.NR, b.D("D1").Float(o.NR)) },
		RestRoot: []core.PropID{o.NR},
	})

	// --- UNNEST space (exactly 1 rule). -----------------------------------
	rs.AddTrans(&volcano.TransRule{
		Name: "unnest_mat_commute",
		LHS:  core.POp(o.UNNEST, "DU", core.POp(o.MAT, "DM", v1)),
		RHS:  core.POp(o.MAT, "DM2", core.POp(o.UNNEST, "DU2", core.PVar(1, ""))),
		Cond: func(b *core.Binding) bool {
			return b.D("D1").AttrList(o.AT).ContainsAll(b.D("DU").AttrList(o.UA))
		},
		Appl: func(b *core.Binding) {
			b.D("DU2").CopyFrom(b.D("DU"))
			b.D("DM2").CopyFrom(b.D("DM"))
		},
		Rest: func(b *core.Binding) {
			du, du2, dm2, d1 := b.D("DU"), b.D("DU2"), b.D("DM2"), b.D("D1")
			du2.Set(o.AT, d1.AttrList(o.AT))
			du2.SetFloat(o.NR, o.unnestCard(d1.Float(o.NR), du.AttrList(o.UA)))
			du2.SetFloat(o.TS, d1.Float(o.TS))
			dm2.Set(o.AT, du.AttrList(o.AT))
			dm2.SetFloat(o.NR, du.Float(o.NR))
		},
		RestRoot: []core.PropID{o.AT, o.NR},
		Keeps:    []core.Keep{{RHS: "DM2", LHS: "DM"}, {RHS: "DU2", LHS: "DU"}},
	})
}

func (o *Opt) addImplRules(rs *volcano.RuleSet) {
	// The costing hooks return descriptors of the binding the engine
	// lends them (ImplCtx.Lend), laid out by every rule's Frame, costing:
	// the algorithm's descriptor, a copy of the operator's, and an input
	// requirement. A nil requirement asks nothing of its input.
	costing := &core.Frame{Names: []string{"alg", "req"}}
	lend := func(cx *volcano.ImplCtx) (*core.Binding, *core.Descriptor) {
		b := cx.Lend()
		d := b.Slot(0)
		d.CopyFrom(cx.OpDesc)
		return b, d
	}
	// The hooks pass on the order values they read and DONT_CARE boxed
	// once: an Order converted to a Value is an allocation per costing.
	dontCare := core.DefaultValue(core.KindOrder)
	// algD is the provisional descriptor of an algorithm that delivers
	// ord and requires nothing of its inputs.
	algD := func(cx *volcano.ImplCtx, ord core.Value) (*core.Descriptor, []*core.Descriptor) {
		_, d := lend(cx)
		d.Set(o.Ord, ord)
		return d, nil
	}
	// Order-preserving unary algorithms propagate the requirement to
	// their input; this helper builds their Pre hook.
	passThroughPre := func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
		b, d := lend(cx)
		cx.InReq[0] = b.Slot(1)
		cx.InReq[0].Set(o.Ord, cx.OpDesc.Get(o.Ord))
		return d, cx.InReq
	}

	rs.AddImpl(&volcano.ImplRule{
		Name: "ret_file_scan", Op: o.RET, Alg: o.FileScan, Frame: costing,
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			return algD(cx, dontCare)
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.C, core.Cost(catalog.FileScanCost(cx.In[0].Float(o.NR))))
		},
	})
	rs.AddImpl(&volcano.ImplRule{
		Name: "ret_index_probe", Op: o.RET, Alg: o.IndexScan, Frame: costing,
		Cond: func(cx *volcano.ImplCtx) bool {
			ix, ok := catalog.PickIndexAttr(cx.Kids[0].AttrList(o.IX), core.DontCareOrder, cx.OpDesc.Pred(o.SP))
			return ok && catalog.IndexUsable(ix, cx.OpDesc.Pred(o.SP))
		},
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			ix, _ := catalog.PickIndexAttr(cx.Kids[0].AttrList(o.IX), core.DontCareOrder, cx.OpDesc.Pred(o.SP))
			return algD(cx, core.OrderOn(ix))
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.C, core.Cost(catalog.IndexScanCost(cx.In[0].Float(o.NR), d.Float(o.NR), true)))
		},
	})
	rs.AddImpl(&volcano.ImplRule{
		Name: "ret_index_sweep", Op: o.RET, Alg: o.IndexScan, Frame: costing,
		Cond: func(cx *volcano.ImplCtx) bool {
			return len(cx.Kids[0].AttrList(o.IX)) > 0
		},
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			ix, _ := catalog.PickIndexAttr(cx.Kids[0].AttrList(o.IX), cx.OpDesc.Order(o.Ord), core.TruePred)
			return algD(cx, core.OrderOn(ix))
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.C, core.Cost(catalog.IndexScanCost(cx.In[0].Float(o.NR), d.Float(o.NR), false)))
		},
	})
	orderPreserving := func(name string, op, alg *core.Operation, cost func(cx *volcano.ImplCtx, d *core.Descriptor) float64) {
		rs.AddImpl(&volcano.ImplRule{
			Name: name, Op: op, Alg: alg, Frame: costing,
			Pre: passThroughPre,
			Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
				d.Set(o.Ord, cx.In[0].Get(o.Ord))
				d.Set(o.C, core.Cost(cost(cx, d)))
			},
		})
	}
	orderPreserving("select_filter", o.SELECT, o.Filter,
		func(cx *volcano.ImplCtx, d *core.Descriptor) float64 {
			return filterCost(cx.In[0].Float(o.C), cx.In[0].Float(o.NR))
		})
	orderPreserving("project_project", o.PROJECT, o.Proj,
		func(cx *volcano.ImplCtx, d *core.Descriptor) float64 {
			return projectCost(cx.In[0].Float(o.C), cx.In[0].Float(o.NR))
		})
	orderPreserving("mat_materialize", o.MAT, o.Materialize,
		func(cx *volcano.ImplCtx, d *core.Descriptor) float64 {
			return materializeCost(cx.In[0].Float(o.C), cx.In[0].Float(o.NR))
		})
	orderPreserving("unnest_flatten", o.UNNEST, o.Flatten,
		func(cx *volcano.ImplCtx, d *core.Descriptor) float64 {
			return flattenCost(cx.In[0].Float(o.C), d.Float(o.NR))
		})
	rs.AddImpl(&volcano.ImplRule{
		Name: "join_hash_join", Op: o.JOIN, Alg: o.HashJoin, Frame: costing,
		Cond: func(cx *volcano.ImplCtx) bool {
			return len(cx.OpDesc.Pred(o.JP).Conjuncts()) >= 1
		},
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			return algD(cx, dontCare)
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.C, core.Cost(hashJoinCost(
				cx.In[0].Float(o.C), cx.In[1].Float(o.C),
				cx.In[0].Float(o.NR), cx.In[1].Float(o.NR))))
		},
	})
	rs.AddImpl(&volcano.ImplRule{
		Name: "mat_pointer_join", Op: o.MAT, Alg: o.PointerJoin, Frame: costing,
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			return algD(cx, dontCare)
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.C, core.Cost(pointerJoinCost(
				cx.In[0].Float(o.C), cx.In[0].Float(o.NR),
				o.matTargetCard(cx.OpDesc.AttrList(o.MA)))))
		},
	})

	rs.AddEnforcer(&volcano.Enforcer{
		Name: "sort_merge_sort", Alg: o.MergeSort, Props: []core.PropID{o.Ord}, Frame: costing,
		Cond: func(cx *volcano.ImplCtx) bool {
			return cx.Req.Order(o.Ord).Within(cx.OpDesc.AttrList(o.AT))
		},
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, *core.Descriptor) {
			d, _ := algD(cx, cx.Req.Order(o.Ord))
			return d, nil
		},
		Post: func(cx *volcano.ImplCtx, d *core.Descriptor) {
			d.Set(o.C, core.Cost(catalog.MergeSortCost(cx.In[0].Float(o.C), d.Float(o.NR))))
		},
	})
}
