package volcano

import (
	"prairie/internal/core"
)

// firing is the state one transformation firing runs in, reused across
// all firings: the binding the rule's hooks see, the groups bound to the
// pattern variables (groupUnbound if unset), and the rule's Rest while
// the firing still owes it, with its RestRoot. A firing on a tree (the
// tree phase, normalize.go) binds nodes instead of groups, by match step.
type firing struct {
	b        *core.Binding
	vars     []GroupID
	rest     core.Action
	restRoot []core.PropID
	nodes    []*core.Expr
}

// firing returns the optimizer's firing state, making it and the matcher
// on first use.
func (o *Optimizer) firing() *firing {
	if o.fire == nil {
		o.fire, o.match = &firing{b: o.RS.newBinding()}, &matcher{}
	}
	return o.fire
}

// groupUnbound marks an unbound pattern variable.
const groupUnbound = GroupID(-1)

// matchStep is one node of a rule's left-hand-side pattern, in pre-order:
// step 0 is the root, and every other step names the step of its parent
// node and its position among that node's inputs.
type matchStep struct {
	pat         *core.PatNode
	parent, kid int
}

// matchSteps flattens a pattern for the matcher.
func matchSteps(p *core.PatNode) []matchStep {
	var steps []matchStep
	var walk func(n *core.PatNode, parent, kid int)
	walk = func(n *core.PatNode, parent, kid int) {
		at := len(steps)
		steps = append(steps, matchStep{n, parent, kid})
		for i, k := range n.Kids {
			walk(k, at, i)
		}
	}
	walk(p, 0, 0)
	return steps
}

// matcher enumerates every binding of a pattern against an expression
// (patterns deeper than one operator bind interior pattern nodes against
// the expressions of the corresponding input groups — Volcano's
// cross-product pattern matching on the memo). It is an iterator over the
// optimizer's one reused binding: start, then next until it reports
// false. What a recursive enumeration keeps in continuations lives in one
// frame per pattern step, so matching allocates nothing.
type matcher struct {
	m     *Memo
	steps []matchStep
	f     *firing
	// since filters for incremental re-matching: a binding is fresh when
	// its root is (start is told) or a chosen input expression became
	// visible to the root at or after since (LExpr.vis).
	since  uint64
	frames []matchFrame // by step
	j      int          // the step to bind next
	retry  bool         // a binding was delivered: move its last choice on
}

// matchFrame is the matcher's state at one pattern step.
type matchFrame struct {
	e *LExpr // the expression bound to an interior step
	// exprs are the input group's expressions as of entering the step —
	// expressions a firing adds meanwhile belong to the next visit — and
	// next indexes the candidate to try next.
	exprs []*LExpr
	next  int
	fresh bool // the binding is fresh as far as this step
}

// start begins the enumeration of steps' pattern rooted at e, whose
// operator is the pattern root's. steps carry their rule's frame slots
// and f's binding is laid out by that frame.
func (x *matcher) start(m *Memo, steps []matchStep, e *LExpr, f *firing, since uint64, fresh bool) {
	x.m, x.steps, x.f, x.since, x.j, x.retry = m, steps, f, since, 1, false
	if len(x.frames) < len(steps) {
		x.frames = make([]matchFrame, len(steps))
	}
	x.frames[0] = matchFrame{e: e, fresh: fresh}
	f.b.BindSlot(steps[0].pat.Slot, e.D)
}

// next binds the next complete binding and reports whether there was
// one; fresh then tells whether it is. The binding is overwritten by the
// call after, so the caller must not retain it.
func (x *matcher) next() bool {
	m, j, retry := x.m, x.j, x.retry
	for {
		if retry {
			// Back to the nearest step with a choice left to make.
			for j--; j > 0 && x.steps[j].pat.IsVar(); j-- {
			}
			if j <= 0 {
				return false
			}
		} else if j == len(x.steps) {
			x.j, x.retry = j, true
			return true
		}
		st, f := &x.steps[j], &x.frames[j]
		if !retry {
			kid := m.Find(x.frames[st.parent].e.Kids[st.kid])
			if st.pat.IsVar() {
				// A variable leaf matches any group; bind the group and,
				// if the pattern names a descriptor ("?1:D1"), the group's
				// representative descriptor (read-only logical
				// information). It binds the whole group: its binding does
				// not change when the group gains expressions, so it never
				// makes a binding fresh on its own.
				for len(x.f.vars) <= st.pat.Var {
					x.f.vars = append(x.f.vars, groupUnbound)
				}
				x.f.vars[st.pat.Var] = kid
				if st.pat.Slot >= 0 {
					x.f.b.BindSlot(st.pat.Slot, m.groups[kid].rep)
				}
				f.fresh = x.frames[j-1].fresh
				j++
				continue
			}
			f.exprs, f.next = m.groups[kid].Exprs, 0
		}
		// Interior pattern node: try the next expression of the input group.
		for retry = true; retry && f.next < len(f.exprs); f.next++ {
			if ke := f.exprs[f.next]; !ke.IsLeaf() && ke.Op == st.pat.Op {
				f.e, f.fresh = ke, x.frames[j-1].fresh || ke.vis >= x.since
				x.f.b.BindSlot(st.pat.Slot, ke.D)
				j, retry = j+1, false
			}
		}
	}
}

// fresh reports whether the binding next just delivered is fresh.
func (x *matcher) fresh() bool { return x.frames[len(x.steps)-1].fresh }

// buildRHS interns the right-hand side of a fired transformation rule.
// Variable leaves resolve to their bound groups; interior nodes take the
// descriptors the rule's actions filled into the binding. target is the
// group the root is inserted into; a group an interior node founds lies
// as far below target as the node nests in the pattern.
func (m *Memo) buildRHS(p *core.PatNode, f *firing, target GroupID) {
	m.buildRHSNode(p, f, target, m.groups[target].depth)
}

func (m *Memo) buildRHSNode(p *core.PatNode, f *firing, target GroupID, depth int) GroupID {
	if p.IsVar() {
		// Descriptor names on RHS variable leaves carry required-property
		// information in Prairie I-rules; in the purely logical space of
		// trans_rules they have no effect.
		return f.vars[p.Var]
	}
	var buf [4]GroupID
	kids := buf[:0]
	for _, kp := range p.Kids {
		kids = append(kids, m.buildRHSNode(kp, f, -1, depth+1))
	}
	// The binding's descriptor is scratch: intern completes and clones it
	// only if the expression is new.
	g, _ := m.intern(p.Op, f.b.Slot(p.Slot), kids, target, f, depth)
	return g
}
