package volcano

import (
	"strings"
	"testing"

	"prairie/internal/core"
)

// withKeeps returns w's rule set with join_commute declaring keeps and
// counting its Appl runs in appl.
func withKeeps(w *testWorld, keeps []core.Keep, appl *int) *RuleSet {
	rs := &RuleSet{Algebra: w.rs.Algebra, Class: w.rs.Class, Impls: w.rs.Impls, Enforcers: w.rs.Enforcers}
	for _, r := range w.rs.Trans {
		c := *r
		if c.Name == "join_commute" {
			inner := r.Appl
			c.Keeps, c.Appl = keeps, func(b *core.Binding) { *appl++; inner(b) }
		}
		rs.Trans = append(rs.Trans, &c)
	}
	return rs
}

// TestProbeSkipsExactlyTheNoOps: join_commute declaring that its right
// side keeps its left side's identity reaches the same memo, counters
// and plan as without, and runs its Appl only for the firings that
// changed the memo (Stats.TransNew): every other firing found its right
// side, in the matched expression's group, before any action ran.
func TestProbeSkipsExactlyTheNoOps(t *testing.T) {
	w := newTestWorld()
	run := func(keeps []core.Keep) (*Optimizer, string, int) {
		appl := 0
		o := NewOptimizer(withKeeps(w, keeps, &appl))
		p, err := o.Optimize(w.chain(8, 4, 2, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		searched := appl
		if err := o.CheckClosed(); err != nil {
			t.Fatal(err)
		}
		return o, p.String(), searched
	}
	full, fplan, fappl := run(nil)
	probe, pplan, pappl := run([]core.Keep{{RHS: "D4", LHS: "D3"}})
	if full.Memo.Dump() != probe.Memo.Dump() || fplan != pplan || full.Stats.Merges != probe.Stats.Merges {
		t.Errorf("the probe changed the search: %d groups / %d exprs / %d merges, %s; without it %d / %d / %d, %s",
			probe.Stats.Groups, probe.Stats.Exprs, probe.Stats.Merges, pplan, full.Stats.Groups, full.Stats.Exprs, full.Stats.Merges, fplan)
	}
	for _, r := range []string{"join_commute", "join_assoc"} {
		if full.Stats.TransFired[r] != probe.Stats.TransFired[r] || full.Stats.TransNew[r] != probe.Stats.TransNew[r] {
			t.Errorf("%s: %d fired, %d new with the probe; %d, %d without", r,
				probe.Stats.TransFired[r], probe.Stats.TransNew[r], full.Stats.TransFired[r], full.Stats.TransNew[r])
		}
	}
	fired, fresh := full.Stats.TransFired["join_commute"], full.Stats.TransNew["join_commute"]
	if fappl != fired || pappl != fresh || fresh >= fired {
		t.Errorf("join_commute ran Appl %d times with the probe and %d without; it fired %d times, %d of them new", pappl, fappl, fired, fresh)
	}
}

// TestValidateKeeps: a Keeps entry names an operator node on each side,
// of one operator.
func TestValidateKeeps(t *testing.T) {
	w := newTestWorld()
	commute := func(keeps ...core.Keep) *RuleSet {
		rs := NewRuleSet(w.alg)
		rs.Class = w.rs.Class
		rs.AddTrans(&TransRule{
			Name:  "join_commute",
			LHS:   core.POp(w.join, "D3", core.PVar(1, "D1"), core.POp(w.ret, "DR", core.PVar(2, "D2"))),
			RHS:   core.POp(w.join, "D4", core.POp(w.ret, "DR2", core.PVar(2, "")), core.PVar(1, "")),
			Keeps: keeps,
		})
		return rs
	}
	if errs := commute(core.Keep{RHS: "D4", LHS: "D3"}, core.Keep{RHS: "DR2", LHS: "DR"}).Validate(); len(errs) != 0 {
		t.Errorf("Validate = %v", errs)
	}
	for _, c := range []struct {
		keep core.Keep
		want string
	}{
		{core.Keep{RHS: "D4", LHS: "DR"}, "keeps D4 (JOIN) from DR (RET): the operators differ"},
		{core.Keep{RHS: "D4", LHS: "D1"}, "keeps D4 from D1: each must name an operator node of its side"},
		{core.Keep{RHS: "D9", LHS: "D3"}, "keeps D9 from D3: each must name an operator node of its side"},
	} {
		if errs := commute(c.keep).Validate(); len(errs) != 1 || !strings.Contains(errs[0].Error(), c.want) {
			t.Errorf("Validate = %v, want %q", errs, c.want)
		}
	}
}

// TestKeepingFiringMergesWithoutAppl: the query joins R1 with R2 twice,
// once in each order, in two groups. join_commute declaring keeps finds
// its right side on the first of them in the other group and merges the
// two without running Appl, reaching the same memo, plan and merges as
// without keeps.
func TestKeepingFiringMergesWithoutAppl(t *testing.T) {
	w := newTestWorld()
	r1 := func() *core.Expr { return w.retOf(w.leaf("R1", 8, core.A("R1", "a"), core.A("R1", "b"))) }
	r2 := func() *core.Expr { return w.retOf(w.leaf("R2", 4, core.A("R2", "a"), core.A("R2", "b"))) }
	on := core.EqAttr(core.A("R1", "a"), core.A("R2", "a"))
	run := func(keeps []core.Keep) (*Optimizer, string, int) {
		appl := 0
		o := NewOptimizer(withKeeps(w, keeps, &appl))
		q := w.joinOf(w.joinOf(r1(), r2(), on), w.joinOf(r2(), r1(), on), core.EqAttr(core.A("R1", "b"), core.A("R2", "b")))
		p, err := o.Optimize(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		searched := appl
		if err := o.CheckClosed(); err != nil {
			t.Fatal(err)
		}
		return o, p.String(), searched
	}
	full, fplan, fappl := run(nil)
	kept, kplan, kappl := run([]core.Keep{{RHS: "D4", LHS: "D3"}})
	if full.Memo.Dump() != kept.Memo.Dump() || fplan != kplan || full.Stats.Merges != kept.Stats.Merges {
		t.Errorf("keeps changed the search: %d merges, %s\n%s\nwithout keeps %d merges, %s\n%s",
			kept.Stats.Merges, kplan, kept.Memo.Dump(), full.Stats.Merges, fplan, full.Memo.Dump())
	}
	if full.Stats.Merges != 1 || full.Stats.TransNew["join_commute"] != 1 {
		t.Fatalf("join_commute: %d merges, %d firings new; want one firing, the merge", full.Stats.Merges, full.Stats.TransNew["join_commute"])
	}
	if fired := full.Stats.TransFired["join_commute"]; fappl != fired || kappl != 0 {
		t.Errorf("join_commute ran Appl %d times with keeps and %d without; it fired %d times, one merge and the rest no-ops", kappl, fappl, fired)
	}
}
