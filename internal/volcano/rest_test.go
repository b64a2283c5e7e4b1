package volcano_test

import (
	"os"
	"testing"

	"prairie/internal/core"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// sameDescriptor reports the first property on which two descriptors
// differ, set-flags included.
func sameDescriptor(got, want *core.Descriptor) (string, bool) {
	ps := want.Props()
	for i := 0; i < ps.Len(); i++ {
		id := core.PropID(i)
		if got.Has(id) != want.Has(id) || !got.Get(id).Equal(want.Get(id)) {
			return ps.At(id).Name, false
		}
	}
	return "", true
}

// TestMemoNeverHalfFilled: a rule's deferred actions run only for a
// firing whose result the memo keeps, and then before the memo clones
// anything — so no descriptor in the memo may ever lack what they
// compute. For the benchmark's fourteen cold-search programs and E4/n4, a
// normal search leaves the memo a search with the deferred actions folded
// back into every firing leaves (EagerRest): the same dump, and
// expression by expression, group representatives included, descriptors
// equal on every property. The normal search must also end at the rules'
// fixpoint (CheckClosed).
func TestMemoNeverHalfFilled(t *testing.T) {
	dsl, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := server.DefaultRegistry(6, 101, string(dsl))
	if err != nil {
		t.Fatal(err)
	}
	type program struct {
		world string
		q     server.QuerySpec
	}
	var programs []program
	for _, world := range []string{"oodb/prairie", "oodb/volcano"} {
		for _, q := range []server.QuerySpec{
			{Family: "E1", N: 6}, {Family: "E1", N: 6, Graph: "star"}, {Family: "E2", N: 4},
			{Family: "E3", N: 4}, {Family: "E4", N: 3}, {Family: "E2", N: 5},
		} {
			programs = append(programs, program{world, q})
		}
	}
	programs = append(programs,
		program{"relational", server.QuerySpec{Family: "E1", N: 6}},
		program{"dsl", server.QuerySpec{Family: "E1", N: 6}},
		program{"oodb/prairie", server.QuerySpec{Family: "E4", N: 4}})
	deferring := 0
	for _, p := range programs {
		w, ok := reg.Lookup(p.world)
		if !ok {
			t.Fatalf("no world %s", p.world)
		}
		for _, r := range w.RS.Trans {
			if r.Rest != nil {
				deferring++
			}
		}
		eager := volcano.EagerRest(w.RS)
		search := func(rs *volcano.RuleSet) *volcano.Optimizer {
			tree, want, err := w.Build(p.q)
			if err != nil {
				t.Fatal(err)
			}
			opt := volcano.NewOptimizer(rs)
			if _, err := opt.Optimize(tree, want); err != nil {
				t.Fatalf("%s %s: %v", p.world, p.q, err)
			}
			return opt
		}
		normal := search(w.RS)
		got, want := normal.Memo, search(eager).Memo
		if got.Dump() != want.Dump() {
			t.Errorf("%s %s: the memo's dump differs from the eager search's", p.world, p.q)
			continue
		}
		gg, wg := got.Groups(), want.Groups()
		for i, g := range gg {
			if prop, ok := sameDescriptor(g.Rep(), wg[i].Rep()); !ok {
				t.Errorf("%s %s: representative of group %d differs on %s: %v, eager %v",
					p.world, p.q, g.ID, prop, g.Rep(), wg[i].Rep())
			}
			for j, e := range g.Exprs {
				if prop, ok := sameDescriptor(e.D, wg[i].Exprs[j].D); !ok {
					t.Errorf("%s %s: %s in group %d differs on %s: %v, eager %v",
						p.world, p.q, e, g.ID, prop, e.D, wg[i].Exprs[j].D)
				}
			}
		}
		if err := normal.CheckClosed(); err != nil {
			t.Errorf("%s %s: not closed: %v", p.world, p.q, err)
		}
	}
	if deferring == 0 {
		t.Error("no rule of any world defers anything: nothing was tested")
	}
}
