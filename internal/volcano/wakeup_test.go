package volcano

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"prairie/internal/core"
)

// wakeWorld is a memo built by hand for the merge wake-up tests: unary
// operators U and P, both identified by their property k, over stored
// files; and one deep rule rooted at P — P(U(?1)) => U(?1), "P is a
// no-op" — whose cond_code records every binding the explorer shows it
// and lets it fire only where the test says so.
type wakeWorld struct {
	o    *Optimizer
	x    *explorer
	u, p *core.Operation
	k    core.PropID
	// seen lists the bindings enumerated since the last reset, as
	// "P<k>/U<k>"; fire tells which of them may fire.
	seen []string
	fire func(binding string) bool
}

func newWakeWorld() *wakeWorld {
	w := &wakeWorld{}
	a := core.NewAlgebra("wake")
	w.k = a.Props.Define("k", core.KindFloat)
	a.Props.Define("cost", core.KindCost)
	w.u, w.p = a.Operator("U", 1), a.Operator("P", 1)
	w.u.Args, w.p.Args = []core.PropID{w.k}, []core.PropID{w.k}
	rs := NewRuleSet(a)
	rs.AddTrans(&TransRule{
		Name: "p_noop",
		LHS:  core.POp(w.p, "Dp", core.POp(w.u, "Du", core.PVar(1, ""))),
		RHS:  core.POp(w.u, "Dn", core.PVar(1, "")),
		Cond: func(b *core.Binding) bool {
			s := fmt.Sprintf("P%v/U%v", b.D("Dp").Float(w.k), b.D("Du").Float(w.k))
			w.seen = append(w.seen, s)
			return w.fire != nil && w.fire(s)
		},
		Appl: func(b *core.Binding) { b.D("Dn").CopyFrom(b.D("Du")) },
	})
	w.o = NewOptimizer(rs)
	w.o.beginRun(context.Background())
	w.x = &explorer{o: w.o, m: w.o.Memo}
	w.o.Memo.explorer = w.x
	return w
}

// expr interns op[k] over one input, into group target (-1: its own).
func (w *wakeWorld) expr(op *core.Operation, k float64, in, target GroupID) GroupID {
	d := core.NewDescriptor(w.o.RS.Algebra.Props)
	d.SetFloat(w.k, k)
	g, _ := w.o.Memo.InsertExpr(op, d, []GroupID{in}, target)
	return g
}

// group builds a group of U expressions with the given keys over file,
// and parents P<key>(group), each in a group of its own.
func (w *wakeWorld) group(file string, us, ps []float64) GroupID {
	leaf := w.o.Memo.InsertLeaf(file, core.NewDescriptor(w.o.RS.Algebra.Props))
	g := w.expr(w.u, us[0], leaf, -1)
	for _, k := range us[1:] {
		w.expr(w.u, k, leaf, g)
	}
	for _, k := range ps {
		w.expr(w.p, k, g, -1)
	}
	return g
}

// settle runs the explorer to its fixpoint and returns, sorted, the
// bindings it enumerated on the way.
func (w *wakeWorld) settle(t *testing.T) []string {
	t.Helper()
	w.seen = nil
	if err := w.x.run(); err != nil {
		t.Fatal(err)
	}
	if err := w.o.Memo.CheckRepaired(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(w.seen)
	return w.seen
}

func wantBindings(t *testing.T, when string, got []string, want ...string) {
	t.Helper()
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s: enumerated %d bindings %v, want %d: %v", when, len(got), got, len(want), want)
	}
}

// TestMergeWakesParentsWithTheDelta: group A (3 expressions, 2 parents)
// absorbs group B (1 expression, 1 parent). A's parents are shown only
// the bindings that contain B's expression — 2, where a full
// re-enumeration would show them 8 — and B's parent, to whom all of A is
// new, re-enumerates in full.
func TestMergeWakesParentsWithTheDelta(t *testing.T) {
	w := newWakeWorld()
	a := w.group("x", []float64{1, 2, 3}, []float64{10, 11})
	b := w.group("y", []float64{4}, []float64{12})
	wantBindings(t, "before the merge", w.settle(t),
		"P10/U1", "P10/U2", "P10/U3", "P11/U1", "P11/U2", "P11/U3", "P12/U4")

	m := w.o.Memo
	m.merge(a, b)
	if m.Find(b) != a {
		t.Fatalf("the larger group did not survive")
	}
	wantBindings(t, "after the merge", w.settle(t),
		"P10/U4", "P11/U4", // the winner's parents: the delta
		"P12/U1", "P12/U2", "P12/U3", "P12/U4") // the loser's parent: everything
	wantBindings(t, "at the fixpoint", w.settle(t))
}

// TestMergeCascadeSurvivorLoses: A absorbs B and, before the explorer
// runs again, loses to the larger C. C's parent is shown A's and B's
// expressions and nothing else; the parents of A and of B, to whom C is
// new, re-enumerate in full.
func TestMergeCascadeSurvivorLoses(t *testing.T) {
	w := newWakeWorld()
	a := w.group("x", []float64{1, 2, 3}, []float64{10, 11})
	b := w.group("y", []float64{4}, []float64{12})
	c := w.group("z", []float64{5, 6, 7, 8, 9}, []float64{13})
	if n := len(w.settle(t)); n != 3+3+1+5 {
		t.Fatalf("enumerated %d bindings before the merges, want 12", n)
	}
	m := w.o.Memo
	m.merge(a, b)
	m.merge(c, m.Find(a))
	if m.Find(a) != c || m.Find(b) != c {
		t.Fatalf("the largest group did not survive")
	}
	var want []string
	for u := 1; u <= 4; u++ {
		want = append(want, fmt.Sprintf("P13/U%d", u))
	}
	for _, p := range []int{10, 11, 12} {
		for u := 1; u <= 9; u++ {
			want = append(want, fmt.Sprintf("P%d/U%d", p, u))
		}
	}
	wantBindings(t, "after the cascade", w.settle(t), want...)
	wantBindings(t, "at the fixpoint", w.settle(t))
}

// TestMergeRaisedInsideParentsOwnApplication: the rule fires on P20(W)
// bound to U1 and rebuilds U1, which lives in W itself, so P20's group —
// {P20(W), U9} — merges with W in the middle of P20's own enumeration of
// W. As the winner's parent, P20 comes back for U9 alone; as the loser's
// parent it starts over — the horizon its interrupted application set
// must not outlive the merge's reset.
func TestMergeRaisedInsideParentsOwnApplication(t *testing.T) {
	for _, c := range []struct {
		name       string
		w, gp      []float64 // U keys of W and of P20's group
		then, want []string  // enumerated by the interrupted visit, and after the repair
	}{
		{"the parent's input group wins", []float64{1, 2, 3}, []float64{9},
			[]string{"P20/U1", "P20/U2", "P20/U3"}, []string{"P20/U9"}},
		{"the parent's input group loses", []float64{1}, []float64{8, 9},
			[]string{"P20/U1"}, []string{"P20/U1", "P20/U8", "P20/U9"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWakeWorld()
			m := w.o.Memo
			wg := w.group("x", c.w, nil)
			gp := w.expr(w.p, 20, wg, -1)
			other := m.InsertLeaf("z", core.NewDescriptor(w.o.RS.Algebra.Props))
			for _, k := range c.gp {
				w.expr(w.u, k, other, gp)
			}
			w.fire = func(string) bool { return true }

			// The interrupted visit, by hand: pop P20(W) and process it.
			w.x.seed()
			var p20 *LExpr
			for e := w.x.pop(); e != nil; e = w.x.pop() {
				if e.Op == w.p {
					p20 = e
				}
			}
			if err := w.x.process(p20); err != nil {
				t.Fatal(err)
			}
			slices.Sort(w.seen)
			wantBindings(t, "the interrupted visit", w.seen, c.then...)
			if m.Merges() != 1 || !m.Dirty() {
				t.Fatalf("%d merges, dirty %v: the firing did not merge the parent's group with its input's", m.Merges(), m.Dirty())
			}
			wantBindings(t, "after the repair", w.settle(t), c.want...)
			wantBindings(t, "at the fixpoint", w.settle(t))
			if g := m.Group(wg); len(g.Exprs) != len(c.w)+len(c.gp)+1 || m.NumGroups() != 3 {
				t.Errorf("merged group holds %d expressions in a memo of %d groups", len(g.Exprs), m.NumGroups())
			}
		})
	}
}
