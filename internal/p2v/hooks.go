package p2v

import (
	"prairie/internal/core"
	"prairie/internal/volcano"
)

// irShape caches the positional structure of an I-rule needed to build
// engine hooks: the frame slots (PatNode.Slot) of both sides'
// descriptors, with the mapping from right-side input positions to
// left-side input positions. A slot is -1 where the pattern names no
// descriptor.
type irShape struct {
	lhsRoot int
	rhsRoot int
	lhsKid  []int // slot of LHS input i's descriptor
	rhsKid  []int // slot of the RHS input's descriptor, indexed by LHS input position
}

func shapeOf(r *core.IRule) irShape {
	sh := irShape{lhsRoot: r.LHS.Slot, rhsRoot: r.RHS.Slot}
	varToIdx := map[int]int{}
	for i, k := range r.LHS.Kids {
		sh.lhsKid = append(sh.lhsKid, k.Slot)
		sh.rhsKid = append(sh.rhsKid, -1)
		varToIdx[k.Var] = i
	}
	for _, k := range r.RHS.Kids {
		if idx, ok := varToIdx[k.Var]; ok {
			sh.rhsKid[idx] = k.Slot
		}
	}
	return sh
}

// condBinding binds the left side's descriptors for the test stage:
// the operator's descriptor (with required properties merged) and the
// input groups' representative descriptors. The binding is the one the
// engine lends this alternative, laid out by the rule's frame: the first
// stage binds it, the Pre stage reuses it as it is and the Post stage
// after rebinding the inputs.
func (sh irShape) condBinding(cx *volcano.ImplCtx) *core.Binding {
	b := cx.Lend()
	if b.BoundSlot(sh.lhsRoot) {
		return b
	}
	b.BindSlot(sh.lhsRoot, cx.OpDesc)
	for i, slot := range sh.lhsKid {
		if slot < 0 {
			continue
		}
		if i < len(cx.Kids) && cx.Kids[i] != nil {
			b.BindSlot(slot, cx.Kids[i])
		} else {
			// Enforcer context: the input is the same equivalence
			// class; its logical descriptor is the operator's.
			b.BindSlot(slot, cx.OpDesc)
		}
	}
	return b
}

// postBinding binds both sides' descriptors for the post-opt stage: the
// optimized inputs' winner descriptors stand in for the input stream
// descriptors of both sides (their costs are now known, §2.4).
func (sh irShape) postBinding(cx *volcano.ImplCtx, algD *core.Descriptor) *core.Binding {
	b := sh.condBinding(cx)
	b.BindSlot(sh.rhsRoot, algD)
	for i := range sh.lhsKid {
		var in *core.Descriptor
		if i < len(cx.In) {
			in = cx.In[i]
		}
		if in == nil {
			continue
		}
		if sh.lhsKid[i] >= 0 {
			b.BindSlot(sh.lhsKid[i], in)
		}
		if sh.rhsKid[i] >= 0 {
			b.BindSlot(sh.rhsKid[i], in)
		}
	}
	return b
}

// makeImpl generates a Volcano impl_rule from a Prairie I-rule. The
// generated hooks realize Table 4(b) of the paper: the I-rule's test
// becomes cond_code, its pre-opt statements generate "do_any_good" and
// "get_input_pv", its post-opt statements generate "derive_phy_prop" and
// "cost".
func makeImpl(r *core.IRule, alias map[*core.Operation]*core.Operation) *volcano.ImplRule {
	sh := shapeOf(r)
	op := r.Op()
	if to, ok := alias[op]; ok {
		op = to
	}
	return &volcano.ImplRule{
		Name:  r.Name,
		Op:    op,
		Alg:   r.Alg(),
		Frame: r.Frame,
		Cond: func(cx *volcano.ImplCtx) bool {
			return r.RunTest(sh.condBinding(cx))
		},
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, []*core.Descriptor) {
			b := sh.condBinding(cx)
			if r.PreOpt != nil {
				r.PreOpt(b)
			}
			for i, slot := range sh.rhsKid {
				if slot >= 0 && b.BoundSlot(slot) {
					cx.InReq[i] = b.Slot(slot)
				}
			}
			return b.Slot(sh.rhsRoot), cx.InReq
		},
		Post: func(cx *volcano.ImplCtx, algD *core.Descriptor) {
			if r.PostOpt != nil {
				r.PostOpt(sh.postBinding(cx, algD))
			}
		},
	}
}

// makeEnforcer generates a Volcano enforcer from a Prairie I-rule on an
// enforcer-operator. props are the physical properties the operator's
// Null rule propagates — the properties this enforcer establishes. The
// engine applies it only where one of them is requested; its Cond is
// the I-rule's own test (e.g. Merge_sort's "tuple_order != DONT_CARE",
// Figure 5).
func makeEnforcer(rs *core.RuleSet, r *core.IRule, props []core.PropID) *volcano.Enforcer {
	ps := rs.Algebra.Props
	sh := shapeOf(r)
	return &volcano.Enforcer{
		Name:  r.Name,
		Alg:   r.Alg(),
		Props: props,
		Frame: r.Frame,
		Cond: func(cx *volcano.ImplCtx) bool {
			return r.RunTest(sh.condBinding(cx))
		},
		Pre: func(cx *volcano.ImplCtx) (*core.Descriptor, *core.Descriptor) {
			b := sh.condBinding(cx)
			if r.PreOpt != nil {
				r.PreOpt(b)
			}
			var inReq *core.Descriptor // nil: the input is free
			if len(sh.rhsKid) == 1 && sh.rhsKid[0] >= 0 && b.BoundSlot(sh.rhsKid[0]) {
				inReq = b.Slot(sh.rhsKid[0])
				// Relax the enforced properties: the input may arrive in
				// any state of the property this algorithm establishes.
				for _, p := range props {
					inReq.Set(p, core.DefaultValue(ps.At(p).Kind))
				}
			}
			return b.Slot(sh.rhsRoot), inReq
		},
		Post: func(cx *volcano.ImplCtx, algD *core.Descriptor) {
			if r.PostOpt != nil {
				r.PostOpt(sh.postBinding(cx, algD))
			}
		},
	}
}
