package volcano_test

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/relopt"
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
// compute. For the benchmark's fourteen cold-search programs, E4/n4 on
// both OODB rule sets and the hand-coded relational rules at E1/n2–6, a
// normal search leaves the memo a search with the deferred actions folded
// back into every firing leaves (EagerRest): the same dump, and
// expression by expression, group representatives included, descriptors
// equal on every property. The normal search must also end at the rules'
// fixpoint (CheckClosed). The hand-coded rule sets split their rules as
// P2V splits the generated ones: at least 15 of their trans_rules defer.
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
		name  string
		rs    *volcano.RuleSet
		build func() (*core.Expr, *core.Descriptor, error)
	}
	var programs []program
	world := func(name string, q server.QuerySpec) {
		w, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("no world %s", name)
		}
		programs = append(programs, program{name + " " + q.String(), w.RS,
			func() (*core.Expr, *core.Descriptor, error) { return w.Build(q) }})
	}
	for _, name := range []string{"oodb/prairie", "oodb/volcano"} {
		for _, q := range []server.QuerySpec{
			{Family: "E1", N: 6}, {Family: "E1", N: 6, Graph: "star"}, {Family: "E2", N: 4},
			{Family: "E3", N: 4}, {Family: "E4", N: 3}, {Family: "E2", N: 5}, {Family: "E4", N: 4},
		} {
			world(name, q)
		}
	}
	world("relational", server.QuerySpec{Family: "E1", N: 6})
	world("dsl", server.QuerySpec{Family: "E1", N: 6})
	rel, _ := reg.Lookup("relational")
	ro := relopt.New(rel.Cat)
	relHand := ro.VolcanoRules()
	var names []string
	for n := 1; n <= 6; n++ {
		names = append(names, catalog.ClassName(n))
		if n < 2 {
			continue
		}
		spec := relopt.QuerySpec{Relations: slices.Clone(names)}
		programs = append(programs, program{fmt.Sprintf("relational/volcano E1/n%d", n), relHand,
			func() (*core.Expr, *core.Descriptor, error) {
				tree, err := ro.Build(spec)
				return tree, ro.Requirement(spec), err
			}})
	}
	oodbHand, _ := reg.Lookup("oodb/volcano")
	deferring := 0
	for _, rs := range []*volcano.RuleSet{oodbHand.RS, relHand} {
		for _, r := range rs.Trans {
			if r.Rest != nil {
				deferring++
			}
		}
	}
	if deferring < 15 {
		t.Errorf("%d hand-coded trans_rules defer, want at least 15", deferring)
	}
	for _, p := range programs {
		search := func(rs *volcano.RuleSet) *volcano.Optimizer {
			tree, want, err := p.build()
			if err != nil {
				t.Fatal(err)
			}
			opt := volcano.NewOptimizer(rs)
			if _, err := opt.Optimize(tree, want); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			return opt
		}
		normal := search(p.rs)
		got, want := normal.Memo, search(volcano.EagerRest(p.rs)).Memo
		if got.Dump() != want.Dump() {
			t.Errorf("%s: the memo's dump differs from the eager search's", p.name)
			continue
		}
		gg, wg := got.Groups(), want.Groups()
		for i, g := range gg {
			if prop, ok := sameDescriptor(g.Rep(), wg[i].Rep()); !ok {
				t.Errorf("%s: representative of group %d differs on %s: %v, eager %v",
					p.name, g.ID, prop, g.Rep(), wg[i].Rep())
			}
			for j, e := range g.Exprs {
				if prop, ok := sameDescriptor(e.D, wg[i].Exprs[j].D); !ok {
					t.Errorf("%s: %s in group %d differs on %s: %v, eager %v",
						p.name, e, g.ID, prop, e.D, wg[i].Exprs[j].D)
				}
			}
		}
		if err := normal.CheckClosed(); err != nil {
			t.Errorf("%s: not closed: %v", p.name, err)
		}
	}
}
