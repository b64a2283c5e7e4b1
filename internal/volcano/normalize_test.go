package volcano

import (
	"context"
	"strings"
	"testing"
)

// withFlags returns w's rule set with the named trans_rules marked
// normalizing or involutions.
func withFlags(w *testWorld, normalize, involution string) *RuleSet {
	rs := &RuleSet{Algebra: w.rs.Algebra, Class: w.rs.Class, Impls: w.rs.Impls, Enforcers: w.rs.Enforcers}
	for _, r := range w.rs.Trans {
		c := *r
		c.Normalize, c.Involution = c.Name == normalize, c.Name == involution
		rs.Trans = append(rs.Trans, &c)
	}
	return rs
}

// TestTreePhase: a normalizing rule rewrites the query before the memo
// sees it — here join_assoc turns a left-deep chain right-deep — without
// touching the caller's tree; its firings count in the rule's ledger row
// and are trace events of group -1.
func TestTreePhase(t *testing.T) {
	w := newTestWorld()
	rs := withFlags(w, "join_assoc", "")
	tree := w.chain(8, 4, 2, 1)
	written, rootD := tree.String(), tree.D
	o := NewOptimizer(rs)
	phase := 0
	o.OnEvent = func(e Event) {
		if e.Kind == EventTransFired && e.Group == -1 {
			phase++
		}
	}
	if _, err := o.Optimize(tree, nil); err != nil {
		t.Fatal(err)
	}
	if tree.String() != written || tree.D != rootD {
		t.Errorf("the tree phase changed the caller's tree: %s, was %s", tree, written)
	}
	if got := o.Stats.TransFired["join_assoc"]; phase == 0 || got != phase {
		t.Errorf("join_assoc fired %d times in the ledger, %d tree-phase events", got, phase)
	}
	if phase != 3 {
		t.Errorf("%d tree-phase firings, want 3", phase)
	}
	o.beginRun(context.Background())
	if norm, err := o.normalize(tree); err != nil || norm.String() != "JOIN(RET(R1), JOIN(RET(R2), JOIN(RET(R3), RET(R4))))" {
		t.Errorf("normalized %s to %s (%v)", written, norm, err)
	}
}

// TestTreePhaseAllocatesNothingUnmatched: on a tree no normalizing rule
// matches, the tree phase returns the tree itself and allocates nothing.
func TestTreePhaseAllocatesNothingUnmatched(t *testing.T) {
	w := newTestWorld()
	o := NewOptimizer(withFlags(w, "join_assoc", ""))
	o.beginRun(context.Background())
	tree := w.chain(8, 4) // one join over two RETs: no join below a join
	var out any
	if n := testing.AllocsPerRun(50, func() { out, _ = o.normalize(tree) }); n != 0 || out != tree {
		t.Errorf("the tree phase allocated %v objects on a tree it leaves alone", n)
	}
}

// TestTreePhaseBound: a normalizing rule that never stops rewriting —
// join_commute, declared so without the involution flag Validate would
// refuse it with — fails the search after the tree's node count squared
// of rewrites, by an error naming it.
func TestTreePhaseBound(t *testing.T) {
	w := newTestWorld()
	_, err := NewOptimizer(withFlags(w, "join_commute", "")).Optimize(w.chain(8, 4), nil)
	if err == nil || !strings.Contains(err.Error(), "normalizing rule join_commute still rewrites after 25 rewrites of a 5-node query") {
		t.Errorf("Optimize: %v", err)
	}
}

// TestInvolutionSkip: join_commute declared an involution skips the
// expressions it built itself, and reaches the same closure and winner
// with fewer firings.
func TestInvolutionSkip(t *testing.T) {
	w := newTestWorld()
	run := func(rs *RuleSet) *Optimizer {
		o := NewOptimizer(rs)
		if _, err := o.Optimize(w.chain(8, 4, 2, 1), nil); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckClosed(); err != nil {
			t.Fatal(err)
		}
		return o
	}
	full, skip := run(w.rs), run(withFlags(w, "", "join_commute"))
	if full.Stats.Groups != skip.Stats.Groups || full.Stats.Exprs != skip.Stats.Exprs || full.Memo.Dump() != skip.Memo.Dump() {
		t.Errorf("the skip changed the memo: %d groups / %d exprs, full exploration %d / %d",
			skip.Stats.Groups, skip.Stats.Exprs, full.Stats.Groups, full.Stats.Exprs)
	}
	if f, s := full.Stats.TransFired["join_commute"], skip.Stats.TransFired["join_commute"]; s >= f {
		t.Errorf("join_commute fired %d times as an involution, %d without the flag", s, f)
	}
}

// TestValidateRuleFlags: an involution is one operator deep, and never
// normalizing.
func TestValidateRuleFlags(t *testing.T) {
	w := newTestWorld()
	for _, c := range []struct {
		rs   *RuleSet
		want string
	}{
		{withFlags(w, "", "join_assoc"), "trans_rule join_assoc is an involution but matches deeper than one operator"},
		{withFlags(w, "join_commute", "join_commute"), "trans_rule join_commute is normalizing and its own inverse"},
	} {
		if errs := c.rs.Validate(); len(errs) != 1 || !strings.Contains(errs[0].Error(), c.want) {
			t.Errorf("Validate = %v, want %q", errs, c.want)
		}
	}
}
