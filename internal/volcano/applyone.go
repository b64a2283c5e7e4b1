package volcano

import (
	"prairie/internal/core"
)

// This file is the rule-verification hook into the transformation
// machinery (internal/rulecheck): single-rule application against a
// concrete operator tree, outside the memo. The memo engine matches
// patterns against equivalence groups (match.go); the per-rule verifier
// needs the same binding and action semantics but on one deterministic
// tree, so a fired rule yields a whole rewritten tree it can execute
// against the naive oracle.

// TreeMatch is one site where a trans_rule's LHS pattern matched a
// concrete logical tree: the matched node, the descriptor environment
// the rule's Cond/Appl hooks run in, and the subtrees bound to the
// pattern's variables. LHS descriptors are bound to clones, so hooks —
// including deliberately corrupted ones under mutation testing — can
// never mutate the original tree.
type TreeMatch struct {
	// Site is the matched subtree's root within the original tree.
	Site *core.Expr
	// Binding carries the descriptor environment; pattern variables
	// bind subtrees (VarSubtree), as there are no memo groups.
	Binding *core.Binding
	// subs maps pattern-variable id to the bound subtree.
	subs map[int]*core.Expr
}

// VarSubtree returns the subtree bound to pattern variable v (nil when
// the variable did not appear in the LHS).
func (m *TreeMatch) VarSubtree(v int) *core.Expr { return m.subs[v] }

// TreeMatches enumerates every site in tree where r's LHS matches.
// Matching a pattern against a concrete tree is deterministic: each node
// yields at most one binding (the memo's cross-product enumeration
// collapses to a single candidate per input position).
func (rs *RuleSet) TreeMatches(r *TransRule, tree *core.Expr) []*TreeMatch {
	var out []*TreeMatch
	var walk func(e *core.Expr)
	walk = func(e *core.Expr) {
		if e.IsLeaf() {
			return
		}
		if m := rs.matchTreeSite(r, e); m != nil {
			out = append(out, m)
		}
		for _, k := range e.Kids {
			walk(k)
		}
	}
	walk(tree)
	return out
}

// matchTreeSite binds r.LHS against the subtree rooted at e, returning
// nil when the pattern does not match.
func (rs *RuleSet) matchTreeSite(r *TransRule, e *core.Expr) *TreeMatch {
	m := &TreeMatch{
		Site:    e,
		Binding: core.NewBinding(rs.Algebra.Props),
		subs:    map[int]*core.Expr{},
	}
	m.Binding.Scratch = true // the rewrite clones what it keeps
	m.Binding.Reset(r.Frame)
	if !m.bindPat(r.LHS, e) {
		return nil
	}
	return m
}

func (m *TreeMatch) bindPat(p *core.PatNode, e *core.Expr) bool {
	if p.IsVar() {
		m.subs[p.Var] = e
		if p.Desc != "" {
			// The engine binds a variable's descriptor to the group's
			// representative; here the subtree root's descriptor plays
			// that role. Clone: rule hooks must treat it as read-only,
			// and mutation testing deliberately runs hooks that don't.
			m.Binding.Bind(p.Desc, e.D.Clone())
		}
		return true
	}
	if e.IsLeaf() || e.Op != p.Op || len(e.Kids) != len(p.Kids) {
		return false
	}
	if p.Desc != "" {
		m.Binding.Bind(p.Desc, e.D.Clone())
	}
	for i, kp := range p.Kids {
		if !m.bindPat(kp, e.Kids[i]) {
			return false
		}
	}
	return true
}

// ApplyAt fires r at match site m: it runs Cond, and when the rule
// applies, runs Appl and — the tree keeps every descriptor — Rest, and
// splices the built RHS into a clone of tree at the match site. It
// returns the rewritten tree and whether the rule fired. The original
// tree is never modified.
func (rs *RuleSet) ApplyAt(r *TransRule, tree *core.Expr, m *TreeMatch) (*core.Expr, bool) {
	m.Binding.BeginFiring()
	if r.Cond != nil && !r.Cond(m.Binding) {
		return nil, false
	}
	if r.Appl != nil {
		r.Appl(m.Binding)
	}
	if r.Rest != nil {
		r.Rest(m.Binding)
	}
	rhs := m.buildRHSTree(r.RHS)
	if rhs == nil {
		return nil, false
	}
	return spliceAt(tree, m.Site, rhs), true
}

// buildRHSTree materializes the rule's RHS pattern as a concrete tree:
// variable leaves become clones of their bound subtrees, interior nodes
// take the descriptors the rule's actions filled into the binding
// (cloned, mirroring the memo's buildRHSNode). A variable that was
// never bound on the LHS yields nil — the rewrite is malformed, which
// the caller treats as a non-application.
func (m *TreeMatch) buildRHSTree(p *core.PatNode) *core.Expr {
	if p.IsVar() {
		sub := m.subs[p.Var]
		if sub == nil {
			return nil
		}
		return sub.Clone()
	}
	kids := make([]*core.Expr, len(p.Kids))
	for i, kp := range p.Kids {
		if kids[i] = m.buildRHSTree(kp); kids[i] == nil {
			return nil
		}
	}
	return &core.Expr{Op: p.Op, D: m.Binding.D(p.Desc).Clone(), Kids: kids}
}

// spliceAt returns a copy of tree with the subtree rooted at site (found
// by node identity) replaced by repl. Unchanged subtrees are cloned too,
// so the result shares no descriptors with the original.
func spliceAt(tree, site *core.Expr, repl *core.Expr) *core.Expr {
	if tree == site {
		return repl
	}
	if tree.IsLeaf() {
		return tree.Clone()
	}
	c := &core.Expr{Op: tree.Op, File: tree.File}
	if tree.D != nil {
		c.D = tree.D.Clone()
	}
	c.Kids = make([]*core.Expr, len(tree.Kids))
	for i, k := range tree.Kids {
		c.Kids[i] = spliceAt(k, site, repl)
	}
	return c
}

// ApplyRule fires r at every match site in tree, returning one
// rewritten tree per site where the rule's condition held.
func (rs *RuleSet) ApplyRule(r *TransRule, tree *core.Expr) []*core.Expr {
	var out []*core.Expr
	for _, m := range rs.TreeMatches(r, tree) {
		if rw, ok := rs.ApplyAt(r, tree, m); ok {
			out = append(out, rw)
		}
	}
	return out
}
