package volcano_test

import (
	"testing"

	"prairie/internal/core"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// scribble overwrites a descriptor the way the next firing's actions do.
func scribble(d *core.Descriptor) {
	d.CopyFrom(core.NewDescriptor(d.Props()))
	d.Name = "scribbled"
}

// TestScratchDescriptorsNeverEscape guards the recycling of the
// descriptors a transformation's actions create: whatever the memo or a
// rewritten tree keeps must be its own copy. In a private registry every
// trans_rule's appl_code is wrapped to collect the descriptors bound to
// its right-hand-side names; after a search none of them is a live memo
// expression's, and overwriting all of them changes neither the memo nor
// the trees RuleSet.ApplyAt built (the per-rule verifier's path).
func TestScratchDescriptorsNeverEscape(t *testing.T) {
	reg, err := server.DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, world := range []string{"oodb/prairie", "oodb/volcano", "relational"} {
		w, _ := reg.Lookup(world)
		scratch := map[*core.Descriptor]bool{}
		for _, r := range w.RS.Trans {
			appl, names := r.Appl, r.RHS.DescNames()
			r.Appl = func(b *core.Binding) {
				if appl != nil {
					appl(b)
				}
				for _, n := range names {
					scratch[b.D(n)] = true
				}
			}
		}
		for _, fam := range []string{"E1", "E2", "E3", "E4"} {
			q := server.QuerySpec{Family: fam, N: 3}
			tree, want, err := w.Build(q)
			if err != nil {
				t.Fatal(err)
			}

			var rewrites []*core.Expr
			for _, r := range w.RS.Trans {
				for _, site := range w.RS.Sites(r, tree) {
					if rw, ok := w.RS.ApplyAt(r, tree, site); ok {
						rewrites = append(rewrites, rw)
					}
				}
			}
			var kept []string
			for _, rw := range rewrites {
				kept = append(kept, rw.Format())
			}

			opt := volcano.NewOptimizer(w.RS)
			if _, err := opt.Optimize(tree, want); err != nil {
				t.Fatalf("%s %s: %v", world, q, err)
			}
			if len(scratch) == 0 || len(rewrites) == 0 {
				t.Fatalf("%s %s: %d descriptors collected, %d rewrites: nothing to check", world, q, len(scratch), len(rewrites))
			}
			for _, g := range opt.Memo.Groups() {
				for _, e := range g.Exprs {
					if scratch[e.D] {
						t.Errorf("%s %s: memo expression %s holds a binding's scratch descriptor", world, q, e)
					}
				}
			}
			dump := opt.Memo.Dump()
			for d := range scratch {
				scribble(d)
			}
			if opt.Memo.Dump() != dump {
				t.Errorf("%s %s: overwriting the scratch descriptors changed the memo", world, q)
			}
			for i, rw := range rewrites {
				if rw.Format() != kept[i] {
					t.Errorf("%s %s: overwriting the scratch descriptors changed an ApplyAt rewrite", world, q)
				}
			}
		}
	}
}
