package volcano_test

import (
	"strings"
	"testing"

	"prairie/internal/server"
	"prairie/internal/volcano"
)

// TestRepairMatchesRebuild is the memo property test of parent-local
// repair: over every query family, on linear and star graphs, under each
// rule set, the memo is compared with a from-scratch rebuild
// (Memo.CheckRepaired, see export_test.go) after every Rehash — observed
// at the first rule firing that follows one, since only firings merge —
// and once more when the search ends, where it must also be the rules'
// fixpoint (CheckClosed). The explorer visits inputs first and merges only
// a handful of times: the test fails if no run repaired anything, so the
// few merges that remain keep exercising the repair.
func TestRepairMatchesRebuild(t *testing.T) {
	reg, err := server.DefaultRegistry(6, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	maxN := map[string]int{"E1": 6, "E2": 5, "E3": 4, "E4": 3}
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
	checked := 0
	for _, sp := range specs {
		w, ok := reg.Lookup(sp.world)
		if !ok {
			t.Fatalf("no world %s", sp.world)
		}
		tree, want, err := w.Build(sp.q)
		if err != nil {
			t.Fatal(err)
		}
		opt := volcano.NewOptimizer(w.RS)
		checks, merges := 0, 0
		opt.OnEvent = func(ev volcano.Event) {
			m := opt.Memo
			if ev.Kind != volcano.EventTransFired || m.Dirty() || m.Merges() == merges {
				return
			}
			merges = m.Merges()
			checks++
			if err := m.CheckRepaired(); err != nil {
				t.Fatalf("%s %s, after %d merges: %v", sp.world, sp.q, merges, err)
			}
		}
		if _, err := opt.Optimize(tree, want); err != nil {
			t.Fatalf("%s %s: %v", sp.world, sp.q, err)
		}
		if err := opt.Memo.CheckRepaired(); err != nil {
			t.Errorf("%s %s, at the fixpoint: %v", sp.world, sp.q, err)
		}
		opt.OnEvent = nil
		if err := opt.CheckClosed(); err != nil {
			t.Errorf("%s %s: not closed: %v", sp.world, sp.q, err)
		}
		if opt.Memo.Merges() > 0 && checks == 0 {
			t.Errorf("%s %s: %d merges but no mid-search check ran", sp.world, sp.q, opt.Memo.Merges())
		}
		checked += checks
	}
	if checked == 0 {
		t.Error("no search ran Rehash in the whole suite: the repair went unchecked")
	}
	t.Logf("mid-search checks: %d", checked)
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

// TestExplorationPassCap: the explorer counts a pass per repair round,
// and a search still at work past the bound on them is reported as
// diverging.
func TestExplorationPassCap(t *testing.T) {
	defer volcano.SetMaxRepairRounds(1)()
	_, err := mergingSearch(t, volcano.Options{})
	if err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Errorf("err = %v", err)
	}
}
