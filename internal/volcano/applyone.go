package volcano

import (
	"prairie/internal/core"
)

// Single-rule application for the per-rule verifier (internal/rulecheck)
// and the oracles that rewrite a query: one trans_rule fired at one site
// of a concrete tree, outside the memo, through the steps the tree phase
// fires its normalizing rules by (normalize.go). Each firing works on its
// own copy of the input, so the rule's hooks — deliberately corrupted
// ones under mutation testing included — write on nothing the caller or
// another rewrite holds; nothing is counted.

// Sites returns the nodes of tree at which r's left side matches, in
// pre-order.
func (rs *RuleSet) Sites(r *TransRule, tree *core.Expr) []*core.Expr {
	te, f := rs.entry(r), &firing{}
	var out []*core.Expr
	var walk func(e *core.Expr)
	walk = func(e *core.Expr) {
		if f.matchTree(te, e) {
			out = append(out, e)
		}
		for _, k := range e.Kids {
			walk(k)
		}
	}
	walk(tree)
	return out
}

// ApplyAt fires r at site, one of tree's nodes, on a copy of tree: it
// returns the copy with the rule's right side in the site's place, and
// whether the rule fired there. The result shares no node and no
// descriptor with tree.
func (rs *RuleSet) ApplyAt(r *TransRule, tree, site *core.Expr) (*core.Expr, bool) {
	te, f := rs.entry(r), &firing{b: rs.newBinding()}
	at := site.Clone()
	if !f.matchTree(te, at) || !f.testTree(te) {
		return nil, false
	}
	return spliceAt(tree, site, f.applyTree(te)), true
}

// spliceAt returns a copy of tree with the subtree rooted at site (found
// by node identity) replaced by repl.
func spliceAt(tree, site, repl *core.Expr) *core.Expr {
	if tree == site {
		return repl
	}
	c := &core.Expr{Op: tree.Op, File: tree.File, Kids: make([]*core.Expr, len(tree.Kids))}
	if tree.D != nil {
		c.D = tree.D.Clone()
	}
	for i, k := range tree.Kids {
		c.Kids[i] = spliceAt(k, site, repl)
	}
	return c
}

// ApplyRule fires r at every site of tree, returning one rewritten tree
// per site where the rule's condition held.
func (rs *RuleSet) ApplyRule(r *TransRule, tree *core.Expr) []*core.Expr {
	var out []*core.Expr
	for _, site := range rs.Sites(r, tree) {
		if rw, ok := rs.ApplyAt(r, tree, site); ok {
			out = append(out, rw)
		}
	}
	return out
}
