package exec_test

import (
	"runtime"
	"sync"
	"testing"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/qgen"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// sixPlans prepares the plans the benchmark's exec_plans workload runs:
// the hand-coded OODB world over eight classes, its tables at the given
// row count, the six queries and the winning plan of each.
func sixPlans(tb testing.TB, rows int) (db *data.DB, props exec.Props, specs []server.QuerySpec, trees, plans []*core.Expr) {
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

func runPlan(db *data.DB, props exec.Props, plan *core.Expr) (*exec.Result, error) {
	it, err := exec.NewCompiler(db, props).Compile(plan)
	if err != nil {
		return nil, err
	}
	return exec.Run(it)
}

func copyRows(rows []data.Tuple) []data.Tuple {
	out := make([]data.Tuple, len(rows))
	for i, r := range rows {
		out[i] = append(data.Tuple{}, r...)
	}
	return out
}

// TestResultOutlivesLaterRuns: a Result's rows keep their bits while
// other plans, and the same plan again, run on the same database. Each
// plan A is run and its rows copied; then all six plans run, then A
// once more, and A's first Result must still equal the copy cell for
// cell, as must the rerun's.
func TestResultOutlivesLaterRuns(t *testing.T) {
	db, props, specs, _, plans := sixPlans(t, 4096)
	for a := range plans {
		first, err := runPlan(db, props, plans[a])
		if err != nil {
			t.Fatalf("%v: %v", specs[a], err)
		}
		if len(first.Rows) == 0 {
			continue
		}
		want := copyRows(first.Rows)
		for b := range plans {
			if _, err := runPlan(db, props, plans[b]); err != nil {
				t.Fatalf("%v: %v", specs[b], err)
			}
		}
		again, err := runPlan(db, props, plans[a])
		if err != nil {
			t.Fatalf("%v: %v", specs[a], err)
		}
		for _, got := range [][]data.Tuple{first.Rows, again.Rows} {
			if len(got) != len(want) {
				t.Fatalf("%v: %d rows, first run %d", specs[a], len(got), len(want))
			}
			for i := range want {
				for c := range want[i] {
					if got[i][c] != want[i][c] {
						t.Fatalf("%v: row %d cell %d is %v, first run %v", specs[a], i, c, got[i][c], want[i][c])
					}
				}
			}
		}
	}
}

// TestSixPlansConcurrentlyMatchNaive runs the six plans from two
// goroutines over one shared database, as the server's "execute": true
// does on World.execDB: every result must bag-equal the naive
// interpreter's. Run under -race. Every Run in this package's tests
// starts from a pool of sentinel cells (export_test.go), so a chunk
// handed back while another run still reads it, or a cell taken and
// not written, changes a bag here.
func TestSixPlansConcurrentlyMatchNaive(t *testing.T) {
	db, props, specs, trees, plans := sixPlans(t, 1024)
	want := make([]*exec.Result, len(trees))
	for i, tree := range trees {
		var err error
		if want[i], err = (&exec.Naive{DB: db, P: props}).Eval(tree); err != nil {
			t.Fatalf("%v: naive: %v", specs[i], err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range plans {
				i := (k + 3*g) % len(plans) // the two goroutines start apart
				got, err := runPlan(db, props, plans[i])
				if err != nil {
					t.Errorf("%v: %v", specs[i], err)
					return
				}
				if !exec.SameBag(got, want[i]) {
					t.Errorf("goroutine %d, %v: %d rows, naive %d: bags differ", g, specs[i], len(got.Rows), len(want[i].Rows))
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunRecyclesScratchChunks: a Run hands its scratch arenas' chunks,
// its slices of row views and its hash chains back, and the next Run
// takes them instead of allocating. From empty pools, the third run of a
// plan allocates little beyond its Result's own cells (the Result's
// slice of row views, the operators, the Result arena's doubling
// chunks); that is the most it allocates, since a fuller pool also
// serves some of the Result's chunks. Without recycling E1/n8 reads
// 11.3 MB here.
func TestRunRecyclesScratchChunks(t *testing.T) {
	db, props, specs, _, plans := sixPlans(t, 4096)
	for i, ceiling := range []int64{95_000, 202_000, 416_000, 33_000, 58_000, 3_000} {
		exec.EmptyPool()
		for range 2 {
			if _, err := runPlan(db, props, plans[i]); err != nil {
				t.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := runPlan(db, props, plans[i])
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for _, row := range res.Rows {
			cells += len(row)
		}
		beyond := int64(m1.TotalAlloc-m0.TotalAlloc) - int64(cells)*16
		t.Logf("%v: %d rows, %d bytes beyond their cells, %d chunks pooled", specs[i], len(res.Rows), beyond, exec.PooledChunks())
		if beyond > ceiling {
			t.Errorf("%v: a run allocates %d bytes beyond its Result's cells, ceiling %d", specs[i], beyond, ceiling)
		}
	}
}

// TestResultRowsArePrivate: Run gathers the root's rows in a pooled
// buffer of views and hands it back; the Result keeps a copy. After
// each run, Result.Rows shares no backing array with any buffer the
// view pool holds, whatever the root: a sort's or a join's drained
// views, or a pass-through of the scan.
func TestResultRowsArePrivate(t *testing.T) {
	db, props, specs, _, plans := sixPlans(t, 1024)
	for range 2 {
		for i, plan := range plans {
			res, err := runPlan(db, props, plan)
			if err != nil {
				t.Fatalf("%v: %v", specs[i], err)
			}
			if exec.SharesPooledViews(res.Rows) {
				t.Errorf("%v: Result.Rows aliases a pooled view buffer", specs[i])
			}
			if len(res.Rows) > 0 && len(res.Rows) != cap(res.Rows) {
				t.Errorf("%v: Result.Rows has length %d, capacity %d", specs[i], len(res.Rows), cap(res.Rows))
			}
		}
	}
}

// TestPoolsStayBounded: after repeated E1/n8 runs, serial and from two
// goroutines, every free list holds no more than its bound, and its own
// count of what it holds is the buffers' capacities summed.
func TestPoolsStayBounded(t *testing.T) {
	db, props, specs, _, plans := sixPlans(t, 4096)
	big := plans[2]
	check := func(when string) {
		t.Helper()
		for _, u := range exec.PoolsInUse() {
			t.Logf("%s: %s holds %d buffers, %d of %d elements", when, u.Name, u.Buffers, u.Held, u.Limit)
			if u.Held != u.Sum || u.Held > u.Limit {
				t.Errorf("%s: %s counts %d elements, holds %d, bound %d", when, u.Name, u.Held, u.Sum, u.Limit)
			}
		}
	}
	for range 4 {
		if _, err := runPlan(db, props, big); err != nil {
			t.Fatalf("%v: %v", specs[2], err)
		}
	}
	check("serial")
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if _, err := runPlan(db, props, big); err != nil {
					t.Errorf("%v: %v", specs[2], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	check("concurrent")
}
