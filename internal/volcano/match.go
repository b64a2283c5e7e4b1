package volcano

import (
	"prairie/internal/core"
)

// forEachMatch enumerates every binding of pattern p against expression e
// (patterns deeper than one operator bind interior pattern nodes against
// the expressions of the corresponding input groups — Volcano's
// cross-product pattern matching on the memo). fn is invoked once per
// complete binding with whether the binding is fresh: since filters for
// incremental re-matching, and a binding is fresh when at least one
// chosen expression was stamped at or after since (the root call passes
// its own freshness in fresh; pass since=0 and fresh=true to enumerate
// everything as fresh). p carries its rule's frame slots and b is laid
// out by that frame. The binding is reused across invocations, so fn
// must not retain it.
func (m *Memo) forEachMatch(p *core.PatNode, e *LExpr, b *TBinding, since uint64, fresh bool, fn func(fresh bool)) {
	if p.IsVar() {
		// A variable leaf matches any group; bind the group and, if the
		// pattern names a descriptor ("?1:D1"), the group's
		// representative descriptor (read-only logical information).
		b.SetVar(p.Var, m.Find(e.group))
		if p.Slot >= 0 {
			b.BindSlot(p.Slot, m.Group(e.group).Rep())
		}
		fn(fresh)
		return
	}
	if e.IsLeaf() || e.Op != p.Op {
		return
	}
	b.BindSlot(p.Slot, e.D)
	m.matchKids(p, e, 0, b, since, fresh, fn)
}

func (m *Memo) matchKids(p *core.PatNode, e *LExpr, i int, b *TBinding, since uint64, fresh bool, fn func(fresh bool)) {
	if i == len(p.Kids) {
		fn(fresh)
		return
	}
	kp := p.Kids[i]
	kid := m.Find(e.Kids[i])
	if kp.IsVar() {
		// A variable kid binds the whole group: its binding does not
		// change when the group gains expressions, so it never makes a
		// binding fresh on its own.
		b.SetVar(kp.Var, kid)
		if kp.Slot >= 0 {
			b.BindSlot(kp.Slot, m.Group(kid).Rep())
		}
		m.matchKids(p, e, i+1, b, since, fresh, fn)
		return
	}
	// Interior kid pattern: try every expression of the input group; an
	// expression stamped at or after since makes the binding fresh.
	g := m.groups[kid]
	for _, ke := range g.Exprs {
		if ke.IsLeaf() || ke.Op != kp.Op {
			continue
		}
		m.forEachMatch(kp, ke, b, since, fresh || ke.seq >= since, func(f bool) {
			m.matchKids(p, e, i+1, b, since, f, fn)
		})
	}
}

// buildRHS interns the right-hand side of a fired transformation rule.
// Variable leaves resolve to their bound groups; interior nodes take the
// descriptors the rule's actions filled into the binding. target is the
// group the root is inserted into. It reports whether the memo changed.
func (m *Memo) buildRHS(p *core.PatNode, b *TBinding, target GroupID) bool {
	_, changed := m.buildRHSNode(p, b, target)
	return changed
}

func (m *Memo) buildRHSNode(p *core.PatNode, b *TBinding, target GroupID) (GroupID, bool) {
	if p.IsVar() {
		// Descriptor names on RHS variable leaves carry required-property
		// information in Prairie I-rules; in the purely logical space of
		// trans_rules they have no effect.
		return b.VarGroup(p.Var), false
	}
	var buf [4]GroupID
	kids := buf[:0]
	changed := false
	for _, kp := range p.Kids {
		kg, ch := m.buildRHSNode(kp, b, -1)
		kids = append(kids, kg)
		changed = changed || ch
	}
	// The binding's descriptor is scratch: intern clones it only if the
	// expression is new.
	g, ch := m.intern(p.Op, b.Slot(p.Slot), kids, target, true)
	return g, changed || ch
}

// newTBinding returns a transformation binding. Both its users — the
// memo's intern and the tree rewriting of ApplyAt — clone what they keep,
// so the binding recycles the descriptors its firings create.
func newTBinding(ps *core.PropertySet) *TBinding {
	b := &TBinding{Binding: core.NewBinding(ps)}
	b.Scratch = true
	return b
}
