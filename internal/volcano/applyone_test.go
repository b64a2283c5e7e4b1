package volcano

import (
	"context"
	"testing"

	"prairie/internal/core"
)

// findTrans returns the named trans_rule of the test world.
func findTrans(t *testing.T, rs *RuleSet, name string) *TransRule {
	t.Helper()
	for _, r := range rs.Trans {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no trans_rule %q", name)
	return nil
}

// TestSitesInPreOrder: Sites names the tree's own nodes a rule matches
// at, in pre-order, and ApplyAt builds the right side over copies of the
// subtrees the left side bound there.
func TestSitesInPreOrder(t *testing.T) {
	w := newTestWorld()
	tree := w.chain(8, 4, 2) // JOIN(JOIN(RET(R1), RET(R2)), RET(R3))
	commute := findTrans(t, w.rs, "join_commute")
	if sites := w.rs.Sites(commute, tree); len(sites) != 2 || sites[0] != tree || sites[1] != tree.Kids[0] {
		t.Fatalf("join_commute should match both JOINs, the root first, got %d sites", len(sites))
	}
	// The deep pattern matches only at the root.
	assoc := findTrans(t, w.rs, "join_assoc")
	sites := w.rs.Sites(assoc, tree)
	if len(sites) != 1 || sites[0] != tree {
		t.Fatalf("join_assoc should match once, at the root, got %d sites", len(sites))
	}
	// ?3 binds the root's right input: the rewrite holds a copy of it.
	rw, ok := w.rs.ApplyAt(assoc, tree, sites[0])
	if !ok {
		t.Fatal("join_assoc did not fire at the root")
	}
	if got := rw.Kids[1].Kids[1]; got == tree.Kids[1] || got.Format() != tree.Kids[1].Format() {
		t.Errorf("?3 should bind the root's right input, and the rewrite hold a copy of it")
	}
}

func TestApplyRuleCommute(t *testing.T) {
	w := newTestWorld()
	tree := w.chain(8, 4)
	commute := findTrans(t, w.rs, "join_commute")
	before := tree.String()
	out := w.rs.ApplyRule(commute, tree)
	if len(out) != 1 {
		t.Fatalf("expected 1 rewrite, got %d", len(out))
	}
	if got, want := out[0].String(), "JOIN(RET(R2), RET(R1))"; got != want {
		t.Errorf("rewritten tree = %s, want %s", got, want)
	}
	if tree.String() != before {
		t.Errorf("original tree mutated: %s", tree.String())
	}
	// The applied descriptor is the rule's output, not a shared pointer
	// into the original tree.
	if out[0].D == tree.D {
		t.Errorf("rewrite shares root descriptor with original")
	}
	if got, want := out[0].D.Pred(w.jp).String(), tree.D.Pred(w.jp).String(); got != want {
		t.Errorf("commuted join predicate = %s, want %s", got, want)
	}
}

func TestApplyRuleCondGates(t *testing.T) {
	w := newTestWorld()
	assoc := findTrans(t, w.rs, "join_assoc")
	// A linear 3-chain associates: (R1⋈R2)⋈R3 -> R1⋈(R2⋈R3).
	tree := w.chain(8, 4, 2)
	out := w.rs.ApplyRule(assoc, tree)
	if len(out) != 1 {
		t.Fatalf("expected 1 assoc rewrite, got %d", len(out))
	}
	if got, want := out[0].String(), "JOIN(RET(R1), JOIN(RET(R2), RET(R3)))"; got != want {
		t.Errorf("rewritten tree = %s, want %s", got, want)
	}
	// A star joined through R1 does not: pulling R1 out of the inner
	// join would leave a cross product, so the cond must reject it.
	l1 := w.retOf(w.leaf("S1", 8, core.A("S1", "a")))
	l2 := w.retOf(w.leaf("S2", 4, core.A("S2", "a")))
	l3 := w.retOf(w.leaf("S3", 2, core.A("S3", "a")))
	inner := w.joinOf(l1, l2, core.EqAttr(core.A("S1", "a"), core.A("S2", "a")))
	star := w.joinOf(inner, l3, core.EqAttr(core.A("S1", "a"), core.A("S3", "a")))
	if out := w.rs.ApplyRule(assoc, star); len(out) != 0 {
		t.Fatalf("cond should reject star association, got %d rewrites", len(out))
	}
}

func TestApplyRuleDoesNotShareState(t *testing.T) {
	w := newTestWorld()
	commute := findTrans(t, w.rs, "join_commute")
	tree := w.chain(8, 4, 2)
	outs := w.rs.ApplyRule(commute, tree)
	if len(outs) != 2 {
		t.Fatalf("expected 2 rewrites, got %d", len(outs))
	}
	// Mutating one rewrite's descriptors must not leak into the other or
	// into the original.
	outs[0].D.SetFloat(w.nr, -1)
	if tree.D.Float(w.nr) == -1 || outs[1].D.Float(w.nr) == -1 {
		t.Errorf("rewrites share descriptor state")
	}
}

// TestApplyAtRunsRest: a rewritten tree keeps every descriptor the firing
// built, so ApplyAt runs a rule's deferred actions with the others — also
// for a rule that is a copy of one of the rule set's, compiled on the
// spot — and
// the memo runs them exactly once for a firing that keeps a node below the
// right side's root, and not at all for one that rediscovers what it holds
// or keeps the root alone: that root takes what Rest writes on it
// (RestRoot) from its group. (The deferred action writes the cost
// property: in this world, whose operators declare no arguments, every
// other non-physical property is an identity property.)
func TestApplyAtRunsRest(t *testing.T) {
	w := newTestWorld()
	rests := 0
	commute := *findTrans(t, w.rs, "join_commute")
	commute.Rest = func(b *core.Binding) {
		rests++
		b.D("D4").Set(w.c, core.Cost(7))
	}
	commute.RestRoot = []core.PropID{w.c}
	out := w.rs.ApplyRule(&commute, w.chain(8, 4))
	if len(out) != 1 || rests != 1 || out[0].D.Float(w.c) != 7 {
		t.Fatalf("%d rewrites, Rest ran %d times, root %v; want 1, 1 and cost=7", len(out), rests, out[0].D)
	}

	explore := func(r *TransRule, tree *core.Expr) (g *Group, fired int) {
		t.Helper()
		rs := NewRuleSet(w.alg)
		rs.AddTrans(r)
		rests = 0
		o := NewOptimizer(rs)
		o.beginRun(context.Background())
		root := o.Memo.Insert(tree)
		if err := o.explore(); err != nil {
			t.Fatal(err)
		}
		o.endRun()
		return o.Memo.Group(root), o.Stats.TransFired[r.Name]
	}
	// In the memo: JOIN(R1, R2), whose group holds cost=7, commutes into a
	// new root alone (Rest does not run; the group supplies the cost),
	// whose commutation rediscovers the original (Rest does not run).
	tree := w.chain(8, 4)
	tree.D.Set(w.c, core.Cost(7))
	g, fired := explore(&commute, tree)
	if len(g.Exprs) != 2 || fired != 2 || rests != 0 {
		t.Fatalf("%d expressions after %d firings, Rest ran %d times; want 2, 2 and 0", len(g.Exprs), fired, rests)
	}
	if g.Exprs[1].D.Float(w.c) != 7 {
		t.Errorf("commuted %v: want the group's cost=7", g.Exprs[1].D)
	}
	// JOIN(JOIN(R1, R2), R3) associates into JOIN(R1, JOIN(R2, R3)), whose
	// inner join is new: Rest runs once, and the root's cost is its own.
	assoc := *findTrans(t, w.rs, "join_assoc")
	assoc.Rest = func(b *core.Binding) {
		rests++
		b.D("D7").Set(w.c, core.Cost(7))
	}
	assoc.RestRoot = []core.PropID{w.c}
	g, fired = explore(&assoc, w.chain(8, 4, 2))
	if len(g.Exprs) != 2 || fired != 1 || rests != 1 || g.Exprs[0].D.Has(w.c) || g.Exprs[1].D.Float(w.c) != 7 {
		t.Errorf("%d expressions after %d firings, Rest ran %d times, original %v, associated %v; want 2, 1, 1 and cost=7 on the associated one only",
			len(g.Exprs), fired, rests, g.Exprs[0].D, g.Exprs[1].D)
	}
}
