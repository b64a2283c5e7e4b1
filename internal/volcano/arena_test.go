package volcano_test

import (
	"os"
	"runtime"
	"testing"

	"prairie/internal/server"
	"prairie/internal/volcano"
)

// TestReturnedPlansOwnNothingInTheMemo checks the rule that lets a
// search carve its memo from arenas: a returned plan, and the plan-cache
// entry made from it, point into none of them. Each world searches a
// query through a plan cache on an optimizer that is then dropped;
// after a collection every arena chunk — expressions, kid ids, rule
// horizons, groups, winner entries, descriptors and their value slots,
// expression lists — must be unreachable, while the plan still renders
// as it did and a fresh optimizer is served the same plan from the
// cache.
func TestReturnedPlansOwnNothingInTheMemo(t *testing.T) {
	dsl, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := server.DefaultRegistry(6, 101, string(dsl))
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"expression", "kid ids", "horizons", "group", "winner", "descriptor", "value slots", "lists"}
	for _, c := range []struct {
		world string
		q     server.QuerySpec
	}{
		{"oodb/prairie", server.QuerySpec{Family: "E4", N: 3}},
		{"oodb/volcano", server.QuerySpec{Family: "E2", N: 4}},
		{"relational", server.QuerySpec{Family: "E1", N: 4}},
		{"dsl", server.QuerySpec{Family: "E1", N: 4}},
	} {
		w, ok := reg.Lookup(c.world)
		if !ok {
			t.Fatalf("no world %s", c.world)
		}
		pc := volcano.NewPlanCache(8)
		plan, text, probes := searchAndDrop(t, w, c.q, pc)
		runtime.GC()
		for _, kind := range kinds {
			if len(probes[kind]) == 0 {
				t.Errorf("%s %s: the memo carved no %s", c.world, c.q, kind)
			}
			alive := 0
			for _, reachable := range probes[kind] {
				if reachable() {
					alive++
				}
			}
			if alive > 0 {
				t.Errorf("%s %s: %d of %d %s objects still reachable after the search", c.world, c.q, alive, len(probes[kind]), kind)
			}
		}
		if plan.String() != text {
			t.Errorf("%s %s: the plan changed after its memo died", c.world, c.q)
		}
		tree, want, err := w.Build(c.q)
		if err != nil {
			t.Fatal(err)
		}
		hit := volcano.NewOptimizer(w.RS)
		hit.Opts.Cache = pc
		got, err := hit.Optimize(tree, want)
		if err != nil || hit.Stats.CacheHits != 1 || got.String() != text {
			t.Errorf("%s %s: cache hit %d, %v, plan %s; want %s", c.world, c.q, hit.Stats.CacheHits, err, got, text)
		}
		runtime.KeepAlive(plan)
		runtime.KeepAlive(pc)
	}
}

// searchAndDrop searches q through pc on an optimizer it does not
// return, and returns the plan, its rendering and the probes of the
// memo's arena objects.
func searchAndDrop(t *testing.T, w *server.World, q server.QuerySpec, pc *volcano.PlanCache) (*volcano.PExpr, string, map[string][]func() bool) {
	t.Helper()
	tree, want, err := w.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	opt := volcano.NewOptimizer(w.RS)
	opt.Opts.Cache = pc
	plan, err := opt.Optimize(tree, want)
	if err != nil {
		t.Fatalf("%s %s: %v", w.Name, q, err)
	}
	return plan, plan.String(), opt.Memo.ArenaObjects()
}
