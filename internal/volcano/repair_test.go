package volcano_test

import (
	"testing"

	"prairie/internal/server"
	"prairie/internal/volcano"
)

// TestRepairMatchesRebuild is the memo property test of parent-local
// repair: over every query family, on linear and star graphs, under each
// rule set and both explorers, the memo is compared with a from-scratch
// rebuild (Memo.CheckRepaired, see export_test.go) after every Rehash —
// observed at the first rule firing that follows one, since only firings
// merge — and once more when the search ends.
func TestRepairMatchesRebuild(t *testing.T) {
	reg, err := server.DefaultRegistry(6, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	maxN := map[string]int{"E1": 6, "E2": 5, "E3": 4, "E4": 3}
	if testing.Short() {
		maxN = map[string]int{"E1": 5, "E2": 4, "E3": 3, "E4": 3}
	}
	type spec struct {
		world string
		q     server.QuerySpec
	}
	var specs []spec
	add := func(world, fam, graph string) {
		specs = append(specs, spec{world, server.QuerySpec{Family: fam, N: maxN[fam], Graph: graph}})
	}
	for _, world := range []string{"oodb/prairie", "oodb/volcano"} {
		for _, fam := range []string{"E1", "E2", "E3", "E4"} {
			add(world, fam, "")
			add(world, fam, "star")
		}
	}
	add("relational", "E1", "")
	for _, sp := range specs {
		w, ok := reg.Lookup(sp.world)
		if !ok {
			t.Fatalf("no world %s", sp.world)
		}
		for _, kind := range []volcano.ExplorerKind{volcano.ExplorerWorklist, volcano.ExplorerPasses} {
			tree, want, err := w.Build(sp.q)
			if err != nil {
				t.Fatal(err)
			}
			opt := volcano.NewOptimizer(w.RS)
			opt.Opts.Explorer = kind
			checks, merges := 0, 0
			opt.OnEvent = func(ev volcano.Event) {
				m := opt.Memo
				if ev.Kind != volcano.EventTransFired || m.Dirty() || m.Merges() == merges {
					return
				}
				merges = m.Merges()
				checks++
				if err := m.CheckRepaired(); err != nil {
					t.Fatalf("%s %s explorer %d, after %d merges: %v", sp.world, sp.q, kind, merges, err)
				}
			}
			if _, err := opt.Optimize(tree, want); err != nil {
				t.Fatalf("%s %s explorer %d: %v", sp.world, sp.q, kind, err)
			}
			if err := opt.Memo.CheckRepaired(); err != nil {
				t.Errorf("%s %s explorer %d, at the fixpoint: %v", sp.world, sp.q, kind, err)
			}
			if opt.Memo.Merges() > 0 && checks == 0 {
				t.Errorf("%s %s explorer %d: %d merges but no mid-search check ran", sp.world, sp.q, kind, opt.Memo.Merges())
			}
		}
	}
}
