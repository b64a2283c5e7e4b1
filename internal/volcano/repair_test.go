package volcano_test

import (
	"strings"
	"testing"

	"prairie/internal/server"
	"prairie/internal/volcano"
)

// TestRepairMatchesRebuild is the memo property test of parent-local
// repair: over every query family, on linear and star graphs, under each
// rule set and both explorers, the memo is compared with a from-scratch
// rebuild (Memo.CheckRepaired, see export_test.go) after every Rehash —
// observed at the first rule firing that follows one, since only firings
// merge — and once more when the search ends. The worklist explorer visits
// inputs first and merges a handful of times where the passes explorer
// merges thousands: the test fails if no worklist run repaired anything,
// so the few merges that remain keep exercising the repair beside the
// passes explorer's cascades.
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
	kinds := []volcano.ExplorerKind{volcano.ExplorerWorklist, volcano.ExplorerPasses}
	checked := map[volcano.ExplorerKind]int{}
	for _, sp := range specs {
		w, ok := reg.Lookup(sp.world)
		if !ok {
			t.Fatalf("no world %s", sp.world)
		}
		for _, kind := range kinds {
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
			checked[kind] += checks
		}
	}
	for _, kind := range kinds {
		if checked[kind] == 0 {
			t.Errorf("explorer %d never ran Rehash in the whole suite: its repair went unchecked", kind)
		}
	}
	t.Logf("mid-search checks: worklist %d, passes %d", checked[volcano.ExplorerWorklist], checked[volcano.ExplorerPasses])
}

// mergingSearch optimizes E3 with three joins under the hand-coded OODB
// rules: a query on which the inputs-first worklist still merges (four
// times). Pushing a selection below a join founds a group on SELECT(JOIN),
// and only that expression's own first visit — which pushes the selection
// one join further — shows it equal to a join the memo already held.
func mergingSearch(t *testing.T, opts volcano.Options) (*volcano.Optimizer, error) {
	t.Helper()
	reg, err := server.DefaultRegistry(6, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Lookup("oodb/volcano")
	tree, want, err := w.Build(server.QuerySpec{Family: "E3", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt := volcano.NewOptimizer(w.RS)
	opt.Opts = opts
	_, err = opt.Optimize(tree, want)
	return opt, err
}

// TestSearchStatsRepeat runs the same merging search again and again:
// the worklist's levels and the merge queue are slices, never map
// iteration, so every counter repeats.
func TestSearchStatsRepeat(t *testing.T) {
	counts := func() [5]int {
		o, err := mergingSearch(t, volcano.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fired := 0
		for _, n := range o.Stats.TransFired {
			fired += n
		}
		return [5]int{o.Stats.Merges, fired, o.Stats.CostedPlans, o.Memo.Repaired(), o.Memo.Interned()}
	}
	first := counts()
	if first[0] == 0 {
		t.Fatal("setup: the query should merge groups")
	}
	for i := 0; i < 3; i++ {
		if again := counts(); again != first {
			t.Fatalf("merges/firings/costed plans/repaired/interned = %v, then %v", first, again)
		}
	}
}

// TestExplorationPassCap: the worklist explorer counts a pass per repair
// round, and a search still at work past MaxPasses of them is reported as
// diverging.
func TestExplorationPassCap(t *testing.T) {
	_, err := mergingSearch(t, volcano.Options{MaxPasses: 1})
	if err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Errorf("err = %v", err)
	}
}
