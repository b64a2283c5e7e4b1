package prairielang

import (
	"fmt"
	"slices"

	"prairie/internal/core"
)

// This file cuts a checked T-rule for a back end that interns what a
// firing builds (core.TRule.Slice). Most firings rebuild an expression
// the back end already holds, and only the identity properties of the new
// nodes decide that; so the rule runs in three parts — the pre-test
// statements and the test, as written; the post-test statements that
// decide identity; the rest — and the back end runs the last only for a
// firing whose result it keeps. A post-test statement moves only where
// moving it cannot change what any statement computes; a rule in which
// some move could is left exactly as written.

// cut is a T-rule's statements in the order the sliced rule runs them.
type cut struct {
	test  []*Stmt // before the test: the pre-test statements
	ident []*Stmt // after it: what decides the right side's identity
	rest  []*Stmt // held back until a result is kept
	whole string  // why the rule was left as written; "" when it was cut
	root  int     // the right side's root slot
	keeps []core.Keep
}

// cutTRule slices d for the right side rhs, whose operations' identity
// properties idProps tells.
func cutTRule(d *TRuleDecl, rhs *core.PatNode, idProps func(*core.Operation) []core.PropID, names []string) cut {
	identity := map[int][]core.PropID{} // of the right side's nodes, by slot
	var bare *core.Operation
	var walk func(n *core.PatNode)
	walk = func(n *core.PatNode) {
		if n.IsVar() {
			return
		}
		if len(n.Op.Args) == 0 {
			bare = n.Op
		}
		identity[n.Slot] = idProps(n.Op)
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(rhs)
	// A cut only reorders statements where that changes nothing they
	// compute, so what each node keeps is read off the rule as written.
	keeps := keepsOf(slices.Concat(d.PreTest, d.PostTest), identity, names)
	whole := func(why string) cut { return cut{test: d.PreTest, ident: d.PostTest, whole: why, keeps: keeps} }
	if bare != nil {
		return whole(bare.Name + " declares no args(...): every property identifies it")
	}
	ident, rest, hazard := partition(d.PostTest, func(st *Stmt) bool {
		ids, node := identity[st.dst]
		return node && (st.Prop == "" || slices.Contains(ids, st.id))
	})
	if hazard != "" {
		return whole(hazard)
	}
	if len(rest) == 0 {
		return whole("every post-test statement decides an identity property")
	}
	return cut{test: d.PreTest, ident: ident, rest: rest, root: rhs.Slot, keeps: keeps}
}

// keepsOf lists, by slot, the right-side nodes whose identity properties
// stmts leave holding copies of one left-side descriptor's: each was last
// assigned by a whole copy of that descriptor or a copy of the same
// property of it. A left-side descriptor is one no statement assigns.
func keepsOf(stmts []*Stmt, identity map[int][]core.PropID, names []string) []core.Keep {
	assigned := map[int]bool{}
	for _, st := range stmts {
		assigned[st.dst] = true
	}
	left := func(slot int) int {
		if _, node := identity[slot]; node || assigned[slot] {
			return -1
		}
		return slot
	}
	from := map[int]map[core.PropID]int{} // node -> identity property -> source slot, -1 computed
	for _, st := range stmts {
		ids, node := identity[st.dst]
		if !node {
			continue
		}
		if from[st.dst] == nil {
			from[st.dst] = map[core.PropID]int{}
		}
		if st.Prop == "" {
			for _, id := range ids {
				from[st.dst][id] = left(st.src)
			}
		} else if slices.Contains(ids, st.id) {
			src := -1
			if m, ok := st.RHS.(*Member); ok && m.ID == st.id {
				src = left(m.slot)
			}
			from[st.dst][st.id] = src
		}
	}
	var keeps []core.Keep
	for slot := range names {
		src := -1
		for i, id := range identity[slot] {
			s, set := from[slot][id]
			if !set || s < 0 || i > 0 && s != src {
				src = -1
				break
			}
			src = s
		}
		if src >= 0 {
			keeps = append(keeps, core.Keep{RHS: names[slot], LHS: names[src]})
		}
	}
	return keeps
}

// partition splits stmts in two, each half in source order: first holds
// the statements seed picks and, transitively, the earlier ones they read
// from; second the others. Running first and then second moves a
// statement of second behind the later ones of first, which changes
// nothing unless one of those assigns what it reads (write after read) or
// assigns (write after write); hazard then names the pair. A read after
// write never crosses: the writer is in first with its reader.
func partition(stmts []*Stmt, seed func(*Stmt) bool) (first, second []*Stmt, hazard string) {
	in := make([]bool, len(stmts))
	for i := len(stmts) - 1; i >= 0; i-- {
		in[i] = seed(stmts[i])
		for j := i + 1; j < len(stmts) && !in[i]; j++ {
			in[i] = in[j] && stmts[j].reads(stmts[i])
		}
	}
	for i, st := range stmts {
		if in[i] {
			first = append(first, st)
			continue
		}
		second = append(second, st)
		for j := i + 1; j < len(stmts); j++ {
			late, what := stmts[j], ""
			switch {
			case !in[j]: // st stays ahead of it
			case st.reads(late):
				what = "reads"
			case st.dst == late.dst && (st.Prop == "" || late.Prop == "" || st.id == late.id):
				what = "assigns"
			}
			if what != "" {
				return nil, nil, fmt.Sprintf("%q %s what the later %q assigns", formatStmt(st), what, formatStmt(late))
			}
		}
	}
	return first, second, ""
}

// reads reports whether st reads a property w assigns.
func (st *Stmt) reads(w *Stmt) bool {
	if st.Prop == "" {
		return st.src == w.dst
	}
	return anyMember(st.RHS, func(x *Member) bool { return x.slot == w.dst && (w.Prop == "" || x.ID == w.id) })
}

// anyMember reports whether f holds for a property read of e, visiting
// them in evaluation order until one does.
func anyMember(e Expr, f func(*Member) bool) bool {
	switch x := e.(type) {
	case *Member:
		return f(x)
	case *Call:
		return slices.ContainsFunc(x.Args, func(a Expr) bool { return anyMember(a, f) })
	case *Unary:
		return anyMember(x.X, f)
	case *Binary:
		return anyMember(x.L, f) || anyMember(x.R, f)
	}
	return false
}

// emit compiles the cut against a frame of its own over the rule's
// descriptor names.
func (c cut) emit(test Expr, names []string, helpers map[string]HelperImpl) *core.Sliced {
	f := &core.Frame{Names: names}
	em := &emitter{helpers: helpers, frame: f}
	// A rule with neither a test nor a statement before it has no
	// condition: Cond stays nil, which a back end reads as TRUE.
	pre, cond := em.action(c.test), em.test(test)
	if t := cond; pre != nil {
		cond = func(b *core.Binding) bool {
			pre(b)
			return t == nil || t(b)
		}
	}
	return &core.Sliced{
		Frame:    f,
		Cond:     cond,
		Appl:     em.action(c.ident),
		Rest:     em.action(c.rest),
		RestRoot: c.restRoot(),
		Keeps:    c.keeps,
		Doc:      c.doc(),
	}
}

// restRoot lists the properties the rest assigns on the right side's
// root: a back end that finds the root alone new takes them from the
// root's group instead of running the rest. A whole-descriptor copy into
// a right-side node always decides its identity (cutTRule), so every
// such assignment names its property.
func (c cut) restRoot() []core.PropID {
	var ids []core.PropID
	for _, st := range c.rest {
		if st.dst == c.root && !slices.Contains(ids, st.id) {
			ids = append(ids, st.id)
		}
	}
	return ids
}

// doc lists the cut for prairiec -dump: one line per statement under the
// part it runs in, or the reason the rule stayed whole.
func (c cut) doc() []string {
	if c.whole != "" {
		return []string{"whole: " + c.whole}
	}
	var out []string
	part := func(name string, stmts []*Stmt) {
		for _, st := range stmts {
			out = append(out, name+formatStmt(st))
		}
	}
	part("test      ", c.test)
	part("identity  ", c.ident)
	part("deferred  ", c.rest)
	return out
}
