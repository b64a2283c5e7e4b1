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

// fireOnTree fires te at tree node e in the optimizer's one firing,
// counting the match and the firing in the rule's ledger row, and returns
// the right side built over e's subtrees, or nil when the pattern does
// not match or the condition fails.
func (o *Optimizer) fireOnTree(te *transEntry, e *core.Expr) *core.Expr {
	f := o.firing()
	if !f.matchTree(te, e) {
		return nil
	}
	t := o.start(te.row)
	t.matched++
	if !f.testTree(te) {
		return nil
	}
	t.fired++
	if o.OnEvent != nil {
		o.emit(EventTransFired, te.rule.Name, -1, e.String(), 0)
	}
	return f.applyTree(te)
}

// Firing a trans_rule on a tree is three steps, shared by the tree phase
// and the single-rule application the verifier runs (applyone.go):
// matchTree binds the left side's nodes by match step, testTree binds
// their descriptors as the memo's matcher binds them and runs the
// condition, and applyTree runs the actions and builds the right side.

// matchTree reports whether te's left side matches at tree node e, its
// root operator included, binding the matched nodes by match step.
func (f *firing) matchTree(te *transEntry, e *core.Expr) bool {
	if e.IsLeaf() || e.Op != te.lhs[0].pat.Op {
		return false
	}
	f.nodes = append(f.nodes[:0], e)
	for _, st := range te.lhs[1:] {
		k := f.nodes[st.parent].Kids[st.kid]
		if !st.pat.IsVar() && (k.IsLeaf() || k.Op != st.pat.Op) {
			return false
		}
		f.nodes = append(f.nodes, k)
	}
	return true
}

// testTree binds the matched nodes' descriptors in f's binding, laid out
// by the rule's frame — a variable's descriptor is its subtree's root's,
// where the memo binds its group's representative — and runs the rule's
// condition.
func (f *firing) testTree(te *transEntry) bool {
	b := f.b
	b.Reset(te.frame)
	for j, st := range te.lhs {
		if st.pat.Slot >= 0 {
			b.BindSlot(st.pat.Slot, f.nodes[j].D)
		}
	}
	b.BeginFiring()
	return te.rule.Cond == nil || te.rule.Cond(b)
}

// applyTree runs the rule's actions, Rest included — a tree keeps every
// node the firing builds — and returns the right side.
func (f *firing) applyTree(te *transEntry) *core.Expr {
	if te.rule.Appl != nil {
		te.rule.Appl(f.b)
	}
	if te.rule.Rest != nil {
		te.rule.Rest(f.b)
	}
	return f.buildTree(te, te.rhs)
}

// buildTree builds the right-side node p of a firing on a tree: a
// variable is the subtree its left-side step bound (twice, where the
// right side names it twice), an operator node a new node with a copy of
// the descriptor the actions filled in.
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
