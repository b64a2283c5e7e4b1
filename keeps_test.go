package prairie_test

import (
	"testing"

	"prairie/internal/core"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// checkedKeeps returns a copy of rs in which every trans_rule with Keeps
// declares none — so the engine runs its Appl on every firing — and
// checks after each Appl that every right-side node it keeps equals, on
// the identity properties of its operator, the left-side node it keeps
// them from. checked counts the firings checked by rule name.
func checkedKeeps(t *testing.T, world string, rs *volcano.RuleSet, checked map[string]int) *volcano.RuleSet {
	out := &volcano.RuleSet{Algebra: rs.Algebra, Class: rs.Class, Impls: rs.Impls, Enforcers: rs.Enforcers}
	for _, r := range rs.Trans {
		c := *r
		if keeps, appl := r.Keeps, r.Appl; len(keeps) > 0 {
			c.Keeps = nil
			c.Appl = func(b *core.Binding) {
				if appl != nil {
					appl(b)
				}
				checked[r.Name]++
				for _, k := range keeps {
					rd, ld := b.D(k.RHS), b.D(k.LHS)
					if ids := rs.IDProps(r.RHS.Find(k.RHS).Op); !rd.EqualOn(ld, ids) {
						t.Errorf("%s %s: %s is %v after Appl, not %s's identity %v", world, r.Name, k.RHS, rd, k.LHS, ld)
					}
				}
			}
		}
		out.Trans = append(out.Trans, &c)
	}
	return out
}

// TestKeepsHold: what a rule's Keeps promise holds on every firing of
// the search_cold and serve pools in the four served worlds — the
// right-side nodes it names leave Appl with their left-side sources'
// identity properties. The engine looks such a firing's right side up
// before Appl runs, so a false entry would make it skip a firing that
// builds something else; here Appl runs on every firing, and each is
// checked.
func TestKeepsHold(t *testing.T) {
	reg, pool := searchColdPool(t)
	for _, w := range []string{"oodb/prairie", "oodb/volcano"} {
		for _, fam := range []string{"E1", "E2", "E3"} {
			for _, g := range []string{"", "star"} {
				for n := 2; n <= 5; n++ {
					pool = append(pool, coldProgram{w, server.QuerySpec{Family: fam, N: n, Graph: g}})
				}
			}
		}
	}
	for n := 2; n <= 6; n++ {
		pool = append(pool, coldProgram{"relational", server.QuerySpec{Family: "E1", N: n}})
	}
	checked, fired := map[string]map[string]int{}, map[string]map[string]int{}
	sets, served := map[string]*volcano.RuleSet{}, map[string]*volcano.RuleSet{}
	for _, p := range pool {
		w, _ := reg.Lookup(p.world)
		if sets[p.world] == nil {
			checked[p.world], fired[p.world] = map[string]int{}, map[string]int{}
			sets[p.world], served[p.world] = checkedKeeps(t, p.world, w.RS, checked[p.world]), w.RS
		}
		tree, want, err := w.Build(p.q)
		if err != nil {
			t.Fatal(err)
		}
		o := volcano.NewOptimizer(sets[p.world])
		if _, err := o.Optimize(tree, want); err != nil {
			t.Fatalf("%s %s: %v", p.world, p.q, err)
		}
		for r, n := range o.Stats.TransFired {
			fired[p.world][r] += n
		}
	}
	total := 0
	for world, rs := range served {
		for _, r := range rs.Trans {
			if n := checked[world][r.Name]; len(r.Keeps) > 0 {
				if n != fired[world][r.Name] {
					t.Errorf("%s %s: %d firings, %d checked", world, r.Name, fired[world][r.Name], n)
				}
				t.Logf("%s %s: %d firings checked", world, r.Name, n)
				total += n
			}
		}
	}
	if len(sets) != 4 || total == 0 {
		t.Errorf("%d worlds searched, %d firings checked", len(sets), total)
	}
}
