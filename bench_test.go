// Benchmarks regenerating the paper's evaluation under testing.B — one
// benchmark per table and figure. Absolute times differ from the 1994
// DECstation numbers; the shapes are the reproduction target:
//
//   - Fig10/Fig11 (E1/E2): Prairie within a few percent of Volcano;
//   - Fig12/Fig13 (E3/E4): steep growth, search-space explosion;
//   - Fig14: equivalence-class growth per family;
//   - Table5: rule matching work per query.
//
// Run with: go test -bench=. -benchmem
package prairie_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/obs"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/relopt"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// prep builds both optimizers' rule sets and the prepared query for one
// workload point.
type benchWorld struct {
	pvrs, vvrs   *volcano.RuleSet
	ptree, vtree *core.Expr
	preq, vreq   *core.Descriptor
}

func prepOODB(b testing.TB, e qgen.ExprKind, n int, indexed bool) *benchWorld {
	b.Helper()
	w := &benchWorld{}
	po := oodb.New(qgen.Catalog(n, 101, indexed))
	var rep *p2v.Report
	var err error
	w.pvrs, rep, err = p2v.Translate(po.PrairieRules())
	if err != nil {
		b.Fatal(err)
	}
	tree, err := qgen.Build(po, e, n)
	if err != nil {
		b.Fatal(err)
	}
	w.ptree, w.preq, err = rep.PrepareQuery(tree, nil)
	if err != nil {
		b.Fatal(err)
	}
	vo := oodb.New(qgen.Catalog(n, 101, indexed))
	w.vvrs = vo.VolcanoRules()
	w.vtree, err = qgen.Build(vo, e, n)
	if err != nil {
		b.Fatal(err)
	}
	w.vreq = core.NewDescriptor(vo.Alg.Props)
	return w
}

func benchOptimize(b *testing.B, vrs *volcano.RuleSet, tree *core.Expr, req *core.Descriptor) {
	b.Helper()
	b.ReportAllocs()
	var groups int
	for i := 0; i < b.N; i++ {
		opt := volcano.NewOptimizer(vrs)
		if _, err := opt.Optimize(tree.Clone(), req); err != nil {
			b.Fatal(err)
		}
		groups = opt.Stats.Groups
	}
	b.ReportMetric(float64(groups), "groups")
}

// benchFigure runs one timing figure's workload at a representative N
// for both specification paths.
func benchFigure(b *testing.B, e qgen.ExprKind, n int) {
	for _, indexed := range []bool{false, true} {
		name := "noindex"
		if indexed {
			name = "indexed"
		}
		w := prepOODB(b, e, n, indexed)
		b.Run(name+"/prairie", func(b *testing.B) { benchOptimize(b, w.pvrs, w.ptree, w.preq) })
		b.Run(name+"/volcano", func(b *testing.B) { benchOptimize(b, w.vvrs, w.vtree, w.vreq) })
	}
}

func BenchmarkFig10_E1_4way(b *testing.B) { benchFigure(b, qgen.E1, 5) }
func BenchmarkFig11_E2_3way(b *testing.B) { benchFigure(b, qgen.E2, 4) }
func BenchmarkFig12_E3_2way(b *testing.B) { benchFigure(b, qgen.E3, 3) }
func BenchmarkFig13_E4_2way(b *testing.B) { benchFigure(b, qgen.E4, 3) }

// BenchmarkFig14_Exploration measures pure search-space expansion (the
// quantity behind the equivalence-class counts) for E4.
func BenchmarkFig14_Exploration(b *testing.B) {
	w := prepOODB(b, qgen.E4, 3, false)
	benchOptimize(b, w.pvrs, w.ptree, w.preq)
}

// BenchmarkExploreMerges runs cold hand-coded-rule searches of the
// queries whose breadth-first exploration was dominated by group merges
// (join_assoc rediscovering equivalences) and reports, beside time and
// allocations, how many merges a search performs, how many expressions
// their repair re-keyed — the work Memo.Rehash does, which must stay
// proportional to the merges and not to the memo — and how many
// expressions it interned: what exceeds the closure died in a merge.
func BenchmarkExploreMerges(b *testing.B) {
	for _, q := range []struct {
		e qgen.ExprKind
		n int
	}{{qgen.E2, 5}, {qgen.E4, 3}, {qgen.E4, 4}} {
		w := prepOODB(b, q.e, q.n, false)
		b.Run(fmt.Sprintf("%v/n%d", q.e, q.n), func(b *testing.B) {
			b.ReportAllocs()
			var merges, repaired, interned int
			for i := 0; i < b.N; i++ {
				opt := volcano.NewOptimizer(w.vvrs)
				if _, err := opt.Optimize(w.vtree.Clone(), w.vreq); err != nil {
					b.Fatal(err)
				}
				merges, repaired, interned = opt.Memo.Merges(), opt.Memo.Repaired(), opt.Memo.Interned()
			}
			b.ReportMetric(float64(merges), "merges/op")
			b.ReportMetric(float64(repaired), "repaired-exprs/op")
			b.ReportMetric(float64(interned), "interned-exprs/op")
		})
	}
}

// TestSearchAllocCeiling guards the allocation budgets of a cold search,
// whose allocation count repeats to a few units. Absolute ceilings about
// 15% above the measured counts keep the whole-memo rebuild from coming
// back (re-interning the memo on every merge tripled the count) and with
// it the per-firing costs since removed: a fresh descriptor per
// right-hand-side name, an argument slice per helper call, an attribute
// list per overlap test, a continuation closure per candidate the matcher
// tries, the conjunction and attribute union join_assoc's test built to
// answer yes or no, and — for the Prairie specification — the attribute
// sets and cardinalities of descriptors the memo turns out to hold
// already. And the paper's claim — the P2V-generated optimizer costs
// about what the hand-coded one does, the residue being "the larger
// number of malloc calls" — is held as a ratio: the Prairie specification
// may allocate at most 12% more than the hand-coded rules on the same
// query (28% before its actions were compiled; 1–8% now that both defer
// what a duplicate firing never keeps and cost alternatives in borrowed
// descriptors — while only P2V's rules did, they allocated 7–56% less:
// the hand-coded rules made E2/n5 32 489 objects, not 13 195). The bytes
// have a ceiling of their own, again about 15% above the measured ones,
// because interning attributes saved bytes and hardly any objects: an
// attribute list of string pairs (32 pointer-bearing bytes an element
// where a symbol takes 4) costs E2/n5 4.51 MB a search with the Prairie
// rules against 2.64 MB, and 7.48 against 3.01 MB hand-coded. Both moved
// again when the explorer began visiting inputs first: the expressions a
// breadth-first search built on groups about to merge were a quarter of
// E2/n5's objects (33 888 against 25 491) and 0.8 MB of its bytes. And
// again when costing began to allocate only the plans it keeps: a
// context, its slices, a binding, descriptors and a plan node for every
// alternative costed, most of which lose, made E2/n5 25 491 objects
// (1.82 MB) with the Prairie rules, not 14 380 (0.97 MB), and 43 399
// hand-coded, not 32 489. And again when the memo began carving what it
// owns — expressions, kid ids, rule horizons, groups, winner entries and
// descriptors — from per-search arenas and building each winner's plan
// node once, when its group is done, instead of at every improvement:
// E2/n5 went from 13 195 objects to 9 187 hand-coded, at 2% fewer bytes.
// The arena's chunks are a few kilobytes each, not growing with the memo:
// a chunk's unused tail is waste, and chunks that doubled made E2/n5
// allocate more bytes (1 127 715) than its ceiling. What the arenas
// removed is common to both rule sets, so alone they raised the ratio to
// 1.113 on E1/n6 (1.125 under the race detector); the Prairie rules also
// stopped boxing each computed cost twice — as a float, then as the cost
// Set coerces it to — which the hand-coded rules never did: E2/n5 went
// from 13 405 objects to 8 679 with them, E1/n6 reads 1.058. And again
// when the memo began carving its growing lists — group members, parent
// lists, the explorer's FIFOs — from an arena, and a conjunction and a
// plan node each became one object: E2/n5 went from 8 679 objects to
// 6 984 with the Prairie rules and from 9 187 to 7 492 hand-coded, at
// 1% more bytes; E1/n6 reads 1.081. And again when a firing whose only
// new expression is the right side's root stopped running its deferred
// actions — the root takes what they write on it from its group — and a
// scratch binding began sizing its descriptor pool once: E2/n5 went from
// 6 984 objects to 6 513 with the Prairie rules and from 7 492 to 6 161
// hand-coded, whose deferred actions did more; E1/n6 reads 1.100 (1.117
// under the race detector). And again when the join rules stopped
// building what they only test or split — a quadratic union's
// duplicates, join_assoc's conjunction, the MAT pull rules' union, a
// boxed one-attribute order per merge join or index scan: E2/n5 went
// from 6 473 objects to 3 636 with the Prairie rules and from 6 129 to
// 4 304 hand-coded, E1/n6 from 635 and 579 to 565 and 509, reading 1.110
// (1.108 under the race detector). And once more when conj_count stopped
// boxing the small counts it returns: with the Prairie rules E1/n6 went
// from 565 objects to 495, E2/n5 from 3 636 to 3 060 and E4/n3 from
// 2 481 to 1 965; E1/n6 reads 0.972. And again when a firing whose right
// side only keeps left-side identities began looking it up before any
// action runs (TransRule.Keeps), join_assoc stopped building its union
// for firings the memo does not keep, and the hand-coded costing hooks
// stopped boxing the orders they pass on: E1/n6 went from 495 objects to
// 375 with the Prairie rules and from 509 to 363 hand-coded, E2/n5 from
// 3 060 to 1 824 and from 4 305 to 1 896, E4/n3 from 1 964 to 1 717 and
// from 3 026 to 1 654; the ratios read 1.033, 0.962 and 1.038.
// allocsPerRun is testing.AllocsPerRun (a warm-up run, then an average;
// callers pin one processor) reading the allocated bytes beside the
// object count.
func allocsPerRun(f func()) (allocs, bytes float64) {
	const runs = 3
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

func TestSearchAllocCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cost := func(rs *volcano.RuleSet, tree *core.Expr, req *core.Descriptor) (allocs, bytes float64) {
		return allocsPerRun(func() {
			if _, err := volcano.NewOptimizer(rs).Optimize(tree.Clone(), req); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, q := range []struct {
		e                          qgen.ExprKind
		n                          int
		prairie, volcano           float64 // ceilings, objects
		prairieBytes, volcanoBytes float64 // ceilings, bytes
	}{
		{qgen.E1, 6, 432, 418, 115_300, 111_400},
		{qgen.E2, 5, 2_100, 2_182, 712_500, 711_800},
		{qgen.E4, 3, 1_976, 1_904, 643_300, 640_500},
	} {
		w := prepOODB(t, q.e, q.n, false)
		p, pb := cost(w.pvrs, w.ptree, w.preq)
		v, vb := cost(w.vvrs, w.vtree, w.vreq)
		t.Logf("%v/n%d: %.0f allocations (%.0f bytes) per cold search with Prairie rules, %.0f (%.0f bytes) hand-coded, ratio %.3f",
			q.e, q.n, p, pb, v, vb, p/v)
		if p > q.prairie || v > q.volcano {
			t.Errorf("%v/n%d: %.0f (Prairie) and %.0f (hand-coded) allocations per cold search, ceilings %.0f and %.0f",
				q.e, q.n, p, v, q.prairie, q.volcano)
		}
		if pb > q.prairieBytes || vb > q.volcanoBytes {
			t.Errorf("%v/n%d: %.0f (Prairie) and %.0f (hand-coded) bytes allocated per cold search, ceilings %.0f and %.0f",
				q.e, q.n, pb, vb, q.prairieBytes, q.volcanoBytes)
		}
		if p/v > 1.12 {
			t.Errorf("%v/n%d: Prairie rules allocate %.3f times what the hand-coded ones do, limit 1.12", q.e, q.n, p/v)
		}
	}
}

// coldProgram is one program of the benchmark's search_cold pool.
type coldProgram struct {
	world string
	q     server.QuerySpec
}

// searchColdPool returns the registry bench/env.go builds for the
// search_cold workload and that workload's fourteen programs
// (bench/workloads.go's searchPool), in order.
func searchColdPool(tb testing.TB) (*server.Registry, []coldProgram) {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("examples", "dslrules", "rules.prairie"))
	if err != nil {
		tb.Fatal(err)
	}
	reg, err := server.DefaultRegistry(6, 101, string(src))
	if err != nil {
		tb.Fatal(err)
	}
	var pool []coldProgram
	for _, world := range []string{"oodb/prairie", "oodb/volcano"} {
		for _, q := range []server.QuerySpec{
			{Family: "E1", N: 6}, {Family: "E1", N: 6, Graph: "star"}, {Family: "E2", N: 4},
			{Family: "E3", N: 4}, {Family: "E4", N: 3}, {Family: "E2", N: 5},
		} {
			pool = append(pool, coldProgram{world, q})
		}
	}
	return reg, append(pool,
		coldProgram{"relational", server.QuerySpec{Family: "E1", N: 6}},
		coldProgram{"dsl", server.QuerySpec{Family: "E1", N: 6}})
}

// TestSearchColdRediscoveries pins, over the search_cold pool, how many
// trans_rule firings there are and how many of them changed the memo
// (Stats.TransNew: interned an expression or merged two groups). The
// rest — 9 980 of 13 794 — rebuilt an expression the memo already held:
// the work a rule set free of rediscoveries would not do. They were
// 15 018 of 18 832 before the MAT push rules normalized the query
// instead of being explored and join_commute stopped firing on its own
// results; the 3 814 new firings did not change.
func TestSearchColdRediscoveries(t *testing.T) {
	reg, pool := searchColdPool(t)
	fired, fresh := 0, 0
	for _, p := range pool {
		w, _ := reg.Lookup(p.world)
		tree, want, err := w.Build(p.q)
		if err != nil {
			t.Fatal(err)
		}
		opt := volcano.NewOptimizer(w.RS)
		if _, err := opt.Optimize(tree, want); err != nil {
			t.Fatalf("%s %s: %v", p.world, p.q, err)
		}
		for r, n := range opt.Stats.TransFired {
			if m := opt.Stats.TransNew[r]; m > n {
				t.Errorf("%s %s: %s made %d new firings of %d", p.world, p.q, r, m, n)
			}
			fired += n
			fresh += opt.Stats.TransNew[r]
		}
	}
	if fired != 13_794 || fresh != 3_814 {
		t.Errorf("search_cold pool: %d firings, %d of them new (%d rediscoveries); want 13794, 3814 (9980)",
			fired, fresh, fired-fresh)
	}
}

// TestSearchColdRestRuns pins, over the search_cold pool, how many
// trans_rule firings run their deferred actions (TransRule.Rest): 650.
// A firing that keeps no expression never did; one whose only new
// expression is the right side's root takes what Rest would write on it
// from the root's group (TransRule.RestRoot), so only a firing that keeps
// a node below the root runs Rest. When every firing that kept something
// ran Rest, they were 2 526.
func TestSearchColdRestRuns(t *testing.T) {
	reg, pool := searchColdPool(t)
	runs := 0
	for _, p := range pool {
		w, _ := reg.Lookup(p.world)
		rs := &volcano.RuleSet{Algebra: w.RS.Algebra, Class: w.RS.Class, Impls: w.RS.Impls, Enforcers: w.RS.Enforcers}
		for _, r := range w.RS.Trans {
			c := *r
			if rest := r.Rest; rest != nil {
				c.Rest = func(b *core.Binding) { runs++; rest(b) }
			}
			rs.Trans = append(rs.Trans, &c)
		}
		tree, want, err := w.Build(p.q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := volcano.NewOptimizer(rs).Optimize(tree, want); err != nil {
			t.Fatalf("%s %s: %v", p.world, p.q, err)
		}
	}
	if runs != 650 {
		t.Errorf("search_cold pool: %d firings ran Rest, want 650", runs)
	}
}

// searchColdRound returns one round of the benchmark's search_cold
// workload (bench/workloads.go's searchPool, over the registry
// bench/env.go builds): every program built and searched cold, cacheless
// and unobserved, on a fresh optimizer, and its plan rendered. It runs
// the round once, since rule indexes are built on first use.
func searchColdRound(tb testing.TB) (round func(), programs int) {
	reg, pool := searchColdPool(tb)
	round = func() {
		for _, p := range pool {
			w, _ := reg.Lookup(p.world)
			tree, want, err := w.Build(p.q)
			if err != nil {
				tb.Fatal(err)
			}
			plan, err := volcano.NewOptimizer(w.RS).Optimize(tree, want)
			if err != nil {
				tb.Fatalf("%s %s: %v", p.world, p.q, err)
			}
			_ = plan.String()
		}
	}
	round()
	return round, len(pool)
}

// BenchmarkSearchCold is one round of the search_cold workload per op.
// allocs/program is the workload's allocs_per_op; `go test -bench
// SearchCold -memprofile mem.out` profiles it.
func BenchmarkSearchCold(b *testing.B) {
	round, programs := searchColdRound(b)
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*programs), "allocs/program")
}

// TestSearchColdAllocs pins BenchmarkSearchCold's allocs/program — the
// search_cold workload's allocs_per_op — 3% above the 1 087 it reads on
// one processor (1 103 under the race detector). It read 1 653 before a
// firing that only rediscovers the memo stopped running actions and
// join_assoc stopped building its union for every firing, 1 783 before
// conj_count stopped boxing its result, 2 509 before
// the join rules stopped building what they only test or split, 2 848
// before a firing whose only new expression is the right side's root
// took what its deferred actions write on it from its group, and 3 642
// before the memo carved its growing lists from an arena and a
// conjunction and a plan node became one object each.
func TestSearchColdAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	round, programs := searchColdRound(t)
	allocs, _ := allocsPerRun(round)
	perProgram := allocs / float64(programs)
	t.Logf("search_cold: %.1f allocations per program", perProgram)
	if perProgram > 1_120 {
		t.Errorf("search_cold: %.1f allocations per program, ceiling 1 120", perProgram)
	}
}

// execPlans prepares what the benchmark's exec_plans workload runs: the
// hand-coded OODB world over eight classes, its tables at the given row
// count, the six queries and the winning plan of each.
func execPlans(tb testing.TB, rows int) (db *data.DB, props exec.Props, specs []server.QuerySpec, trees, plans []*core.Expr) {
	tb.Helper()
	w := server.OODBVolcanoWorld(oodb.New(qgen.Catalog(8, 101, false)), 8)
	specs = []server.QuerySpec{
		{Family: "E1", N: 4}, {Family: "E1", N: 6}, {Family: "E1", N: 8},
		{Family: "E2", N: 3}, {Family: "E2", N: 4}, {Family: "E4", N: 3},
	}
	for _, q := range specs {
		tree, want, err := w.Build(q)
		if err != nil {
			tb.Fatal(err)
		}
		plan, err := volcano.NewOptimizer(w.RS).Optimize(tree.Clone(), want)
		if err != nil {
			tb.Fatal(err)
		}
		trees, plans = append(trees, tree), append(plans, plan)
	}
	return data.Populate(w.Cat, 101, rows), w.ExecProps, specs, trees, plans
}

func execOnce(tb testing.TB, db *data.DB, props exec.Props, plan *core.Expr) *exec.Result {
	it, err := exec.NewCompiler(db, props).Compile(plan)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := exec.Run(it)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestExecPlansMatchNaive runs the six plans on 256-row tables (as the
// benchmark's gate does) against the naive interpreter's reading of the
// query, twice over one database: the second run must not see the first.
func TestExecPlansMatchNaive(t *testing.T) {
	db, props, specs, trees, plans := execPlans(t, 256)
	nonEmpty := 0
	for i, q := range specs {
		want, err := (&exec.Naive{DB: db, P: props}).Eval(trees[i])
		if err != nil {
			t.Fatalf("%v: naive: %v", q, err)
		}
		for run := 0; run < 2; run++ {
			if got := execOnce(t, db, props, plans[i]); !exec.SameBag(got, want) {
				t.Errorf("%v run %d: plan returns %d rows, naive %d: bags differ", q, run, len(got.Rows), len(want.Rows))
			}
		}
		if len(want.Rows) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Errorf("only %d of %d queries return rows: the comparison is mostly vacuous", nonEmpty, len(specs))
	}
}

// TestExecAllocCeiling guards what one compile-and-run of each
// exec_plans plan allocates, which repeats to a few objects: a row is
// 16-byte pointer-free cells carved from its operator's arena, and the
// slices of row views and hash chains operators drain into come from
// free pools, so the objects are the operators, the chunks the Result
// keeps and its one slice of row views — not rows. Ceilings about 15%
// above the measured counts keep a per-row allocation from coming back
// (two slices per joined row made E1/n8 54 902 objects and 83 MB).
//
// What a run allocates depends on the executor's process-wide pools of
// row chunks, views and chains, which earlier plans and tests leave
// filled, so each plan is priced from a stated one: the chunk pool
// emptied (emptyChunkPool), then one warm-up run of the plan itself,
// which hands back its scratch chunks and buffers. Every measured run
// then finds those and makes the chunks its Result keeps: what the plan
// costs run after run, as BenchmarkExecPlans reads it, and the most any
// pool state makes a warmed-up run allocate.
func TestExecAllocCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db, props, specs, _, plans := execPlans(t, 4096)
	for i, c := range []struct{ allocs, bytes float64 }{
		{29, 480_000}, {59, 2_529_000}, {149, 11_718_000}, {38, 478_000}, {53, 632_000}, {29, 3_010},
	} {
		emptyChunkPool(t, db, props, plans[2])
		allocs, bytes := allocsPerRun(func() { execOnce(t, db, props, plans[i]) })
		t.Logf("%v: %.0f allocations, %.0f bytes per run", specs[i], allocs, bytes)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%v: %.0f allocations and %.0f bytes per run, ceilings %.0f and %.0f", specs[i], allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// emptyChunkPool takes every chunk the executor's pool holds. A compiled
// plan drained without exec.Run keeps the chunks it takes, and a run of
// the E1/n8 plan (big) takes 139: two such drains take more than the 256
// the pool holds at most.
func emptyChunkPool(t *testing.T, db *data.DB, props exec.Props, big *core.Expr) {
	t.Helper()
	for range 2 {
		it, err := exec.NewCompiler(db, props).Compile(big)
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkExecPlans compiles and runs each exec_plans plan.
func BenchmarkExecPlans(b *testing.B) {
	db, props, specs, _, plans := execPlans(b, 4096)
	for i, q := range specs {
		b.Run(q.String(), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				execOnce(b, db, props, plans[i])
			}
		})
	}
}

// BenchmarkTable5_RuleMatch measures the rule-matching work of the most
// rule-intensive query (Q7: E4, no indices).
func BenchmarkTable5_RuleMatch(b *testing.B) {
	w := prepOODB(b, qgen.E4, 2, false)
	benchOptimize(b, w.pvrs, w.ptree, w.preq)
}

// BenchmarkRelopt reproduces the [5] experiment point at 4 joins.
func BenchmarkRelopt(b *testing.B) {
	cat := catalog.Generate(catalog.DefaultGen(5, 101, true))
	names := make([]string, 5)
	for i := range names {
		names[i] = catalog.ClassName(i + 1)
	}
	q := relopt.QuerySpec{Relations: names, Select: true}

	po := relopt.New(cat)
	pvrs, rep, err := p2v.Translate(po.PrairieRules())
	if err != nil {
		b.Fatal(err)
	}
	ptree, err := po.Build(q)
	if err != nil {
		b.Fatal(err)
	}
	ptree, preq, err := rep.PrepareQuery(ptree, po.Requirement(q))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("prairie", func(b *testing.B) { benchOptimize(b, pvrs, ptree, preq) })

	vo := relopt.New(cat)
	vtree, err := vo.Build(q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("volcano", func(b *testing.B) {
		benchOptimize(b, vo.VolcanoRules(), vtree, vo.Requirement(q))
	})
}

// BenchmarkP2VTranslate measures the pre-processor itself on the full
// OODB specification (22 T-rules, 11 I-rules).
func BenchmarkP2VTranslate(b *testing.B) {
	o := oodb.New(qgen.Catalog(2, 101, false))
	rs := o.PrairieRules()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := p2v.Translate(rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSLCompile measures parsing plus type-checking plus
// compilation of the OODB Prairie-language specification.
func BenchmarkDSLCompile(b *testing.B) {
	o := oodb.New(qgen.Catalog(2, 101, false))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oodb.New(o.Cat)
	}
}

// benchOptimizeObs is benchOptimize with an explicit observer attached
// to every run (nil = the uninstrumented baseline).
func benchOptimizeObs(b *testing.B, w *benchWorld, ob *obs.Observer) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := volcano.NewOptimizer(w.pvrs)
		opt.Opts.Obs = ob
		if _, err := opt.Optimize(w.ptree.Clone(), w.preq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsGuard prices observability: the same workload with it
// absent ("off") and fully enabled ("on": metrics plus per-rule timing).
// An attached observer with every sink disabled reads as absent to the
// engine (Observer.Enabled); TestObserverNeutral checks that it changes
// nothing.
func BenchmarkObsGuard(b *testing.B) {
	for _, wl := range []struct {
		name string
		e    qgen.ExprKind
		n    int
	}{
		{"fig12", qgen.E3, 3},
		{"fig13", qgen.E4, 3},
	} {
		w := prepOODB(b, wl.e, wl.n, false)
		b.Run(wl.name+"/off", func(b *testing.B) { benchOptimizeObs(b, w, nil) })
		b.Run(wl.name+"/on", func(b *testing.B) {
			benchOptimizeObs(b, w, &obs.Observer{Metrics: obs.NewRegistry(), RuleTiming: true})
		})
	}
}
