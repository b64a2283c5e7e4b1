package volcano

import (
	"fmt"
	"slices"

	"prairie/internal/core"
)

// The tree phase: before the memo sees a query, the rule set's
// normalizing rules (TransRule.Normalize) rewrite the tree as written
// until none of them matches. Exploration never tries them.

// normalize returns tree rewritten to a fixpoint of the normalizing
// rules, leaving tree as it is: a rewritten node is a new one, and so is
// every node above it, while the subtrees a rewrite leaves alone — and
// every descriptor — are shared with tree. A tree no normalizing rule
// matches comes back itself, after a walk that allocates nothing. Every
// firing counts in its rule's ledger row and is an EventTransFired (of
// group -1: no group exists yet). Rules that rewrite for ever are stopped
// after the input's node count squared of rewrites, by an error naming
// the rule that fired last.
func (o *Optimizer) normalize(tree *core.Expr) (*core.Expr, error) {
	if len(o.RS.index().norm) == 0 {
		return tree, nil
	}
	n := normalizer{o: o, root: tree}
	out, err := n.walk(tree)
	o.charge(idle)
	return out, err
}

// normalizer is one tree phase: the input's root, its node count once
// a rule fires (0 before), and the rewrites so far.
type normalizer struct {
	o           *Optimizer
	root        *core.Expr
	size, fired int
}

// walk normalizes e's inputs, then fires the first normalizing rule
// that applies at e and normalizes what it built, until none applies.
func (n *normalizer) walk(e *core.Expr) (*core.Expr, error) {
	if e.IsLeaf() {
		return e, nil
	}
	out := e
	for i, k := range e.Kids {
		nk, err := n.walk(k)
		if err != nil {
			return nil, err
		}
		if nk != k {
			if out == e {
				out = &core.Expr{Op: e.Op, D: e.D, Kids: slices.Clone(e.Kids)}
			}
			out.Kids[i] = nk
		}
	}
	entries := n.o.RS.normFor(out.Op)
	for i := range entries {
		te := &entries[i]
		r := n.o.fireOnTree(te, out)
		if r == nil {
			continue
		}
		if n.size == 0 {
			n.size = n.root.Size()
		}
		if n.fired++; n.fired > n.size*n.size {
			return nil, fmt.Errorf("volcano: normalizing rule %s still rewrites after %d rewrites of a %d-node query",
				te.rule.Name, n.size*n.size, n.size)
		}
		return n.walk(r)
	}
	return out, nil
}

// fireOnTree fires te at tree node e: it binds the rule's left side as
// the matcher binds it at a memo expression — a variable's descriptor is
// its subtree's root's, where the memo binds its group's representative
// — in the optimizer's one firing binding, runs the rule's actions, Rest
// included, and returns the right side built over the bound subtrees, or
// nil when the pattern does not match or the condition fails.
func (o *Optimizer) fireOnTree(te *transEntry, e *core.Expr) *core.Expr {
	f := o.firing()
	f.nodes = append(f.nodes[:0], e)
	for _, st := range te.lhs[1:] {
		k := f.nodes[st.parent].Kids[st.kid]
		if !st.pat.IsVar() && (k.IsLeaf() || k.Op != st.pat.Op) {
			return nil
		}
		f.nodes = append(f.nodes, k)
	}
	rule, b := te.rule, f.b
	t := o.start(te.row)
	t.matched++
	b.Reset(te.frame)
	for j, st := range te.lhs {
		if st.pat.Slot >= 0 {
			b.BindSlot(st.pat.Slot, f.nodes[j].D)
		}
	}
	b.BeginFiring()
	if rule.Cond != nil && !rule.Cond(b) {
		return nil
	}
	t.fired++
	if o.OnEvent != nil {
		o.emit(EventTransFired, rule.Name, -1, e.String(), 0)
	}
	if rule.Appl != nil {
		rule.Appl(b)
	}
	if rule.Rest != nil {
		rule.Rest(b)
	}
	return f.buildTree(te, te.rhs)
}

// buildTree builds the right-side node p of a firing on a tree: a
// variable is the subtree its left-side step bound, an operator node a
// new node with a copy of the descriptor the actions filled in.
func (f *firing) buildTree(te *transEntry, p *core.PatNode) *core.Expr {
	if p.IsVar() {
		j := slices.IndexFunc(te.lhs, func(st matchStep) bool { return st.pat.IsVar() && st.pat.Var == p.Var })
		return f.nodes[j]
	}
	kids := make([]*core.Expr, len(p.Kids))
	for i, k := range p.Kids {
		kids[i] = f.buildTree(te, k)
	}
	return &core.Expr{Op: p.Op, D: f.b.Slot(p.Slot).Clone(), Kids: kids}
}
