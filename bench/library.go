package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/volcano"
)

// This file holds the two library workloads. Both are one goroutine
// calling the Go API in rounds over a fixed program set, so they share
// the round loop and the way the end-to-end metrics are derived.

// peakRSSMB reads a process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's resident-set high-water mark, so
// peak_rss_mb describes the timed region and not the gate's garbage.
// Where the kernel refuses, the mark simply covers the whole run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// roundStats is what roundLoop observed.
type roundStats struct {
	Lat       map[program][]float64 // µs per timed operation, at nominal host speed
	Attempted int
	Failed    int
	FirstErr  error
	Nominal   time.Duration // the timed region's length at nominal host speed
	Mallocs   uint64
	Note      string
}

// roundLoop times op on every program of the pool, round after round:
// warm-up rounds first, then rounds until the timed region has lasted
// cfg.Seconds. op returns its own latency (so per-operation checks stay
// outside it) and an error when the answer was wrong; wrong answers are
// counted, not fatal, so fail counts reach the result.
func roundLoop(cfg config, pool []program, op func(program) (time.Duration, error)) roundStats {
	rs := roundStats{Lat: map[program][]float64{}}
	// The seed decides the order programs follow each other in, so no
	// result leans on one program always running after another's garbage.
	pool = append([]program(nil), pool...)
	rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for r := 0; r < cfg.Warmup; r++ {
		for _, p := range pool {
			if _, err := op(p); err != nil && rs.FirstErr == nil {
				rs.FirstErr = err
			}
		}
	}
	runtime.GC()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cal := newCalibrator(true)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for rounds := 0; rounds == 0 || time.Now().Before(deadline); rounds++ {
		for _, p := range pool {
			cal.tick()
			d, err := op(p)
			rs.Attempted++
			if err != nil {
				rs.Failed++
				if rs.FirstErr == nil {
					rs.FirstErr = err
				}
				continue
			}
			rs.Lat[p] = append(rs.Lat[p], cal.scale(d))
		}
	}
	cal.close(time.Now())
	rs.Nominal, rs.Note = cal.nominal, cal.note(time.Since(start))
	runtime.ReadMemStats(&m1)
	rs.Mallocs = m1.Mallocs - m0.Mallocs - cal.mallocs
	return rs
}

// libraryMetrics derives the end-to-end metrics of a library workload.
// typical lists the programs whose per-program medians enter the
// geometric mean.
func libraryMetrics(wl workload, rs roundStats, typical []program, setup []float64) (map[string]sample, error) {
	if rs.Attempted == rs.Failed {
		return nil, fmt.Errorf("no operation succeeded: %v", rs.FirstErr)
	}
	var meds []float64
	for _, p := range typical {
		meds = append(meds, median(rs.Lat[p]))
	}
	tail := rs.Lat[largest[wl.Name]]
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	return endToEnd(setup, sample{geomean(meds), "us", len(meds)}, sample{median(tail), "us", len(tail)},
		rs.Attempted-rs.Failed, rs.Attempted, rs.Nominal, rs.Mallocs, rss), nil
}

// endToEnd assembles the six end-to-end metrics every workload reports.
// Everything timed arrives at nominal host speed (see calib.go).
func endToEnd(setup []float64, typical, tail sample, correct, attempted int, nominal time.Duration, mallocs uint64, rssMB float64) map[string]sample {
	return map[string]sample{
		"setup_s":            {median(setup), "s", len(setup)},
		"latency_typical_us": typical,
		"latency_tail_us":    tail,
		"throughput_ops":     {float64(correct) / nominal.Seconds(), "1/s", correct},
		"allocs_per_op":      {float64(mallocs) / float64(attempted), "count", attempted},
		"peak_rss_mb":        {rssMB, "MB", 1},
	}
}

// timeSetup times one set-up and returns its seconds at nominal host
// speed, from calibration slices taken right before and after it.
func timeSetup(setUp func() error) (float64, error) {
	before := kernelSlice()
	t0 := time.Now()
	if err := setUp(); err != nil {
		return 0, err
	}
	d := time.Since(t0).Seconds()
	return atNominalSpeed(d, (before+kernelSlice())/2), nil
}

// searchCounters sums the search-space counters of one cold search per
// program. A pure-speed change holds all of them fixed.
type searchCounters struct {
	Groups, Exprs, Merges, TransFired, CostedPlans, Pruned int
	MemoBytes                                              int64
	CostSum                                                float64
}

// searched is one cold search of every program of a pool: the plans,
// the reference answers the gate verifies, and the summed counters.
type searched struct {
	refs     map[program]answer
	plans    map[program]*volcano.PExpr
	counters searchCounters
}

func searchPoolOnce(e *env, pool []program) (*searched, error) {
	s := &searched{refs: map[program]answer{}, plans: map[program]*volcano.PExpr{}}
	c := &s.counters
	for _, p := range pool {
		plan, st, w, err := e.optimize(p)
		if err != nil {
			return nil, err
		}
		pj, err := wirePlan(plan)
		if err != nil {
			return nil, fmt.Errorf("%s: encode plan: %w", p, err)
		}
		cost := plan.Cost(w.RS.Class)
		s.plans[p] = plan
		s.refs[p] = answer{PlanText: plan.String(), Cost: cost, PlanJSON: string(pj)}
		c.Groups += st.Groups
		c.Exprs += st.Exprs
		c.Merges += st.Merges
		for _, n := range st.TransFired {
			c.TransFired += n
		}
		c.CostedPlans += st.CostedPlans
		c.Pruned += st.Pruned
		c.MemoBytes += st.MemoBytes
		c.CostSum += cost
	}
	return s, nil
}

// checkDeterminism searches the pool a second time: counts made by the
// program are comparable across commits only if they repeat exactly.
func checkDeterminism(e *env, pool []program, first searchCounters) error {
	again, err := searchPoolOnce(e, pool)
	if err != nil {
		return err
	}
	if again.counters != first {
		return fmt.Errorf("search counters differ between two runs on identical input: %+v vs %+v", first, again.counters)
	}
	return nil
}

// runSearchCold: every round optimizes every program once on a fresh
// optimizer with no cache and no observer; the tree is built outside the
// timed call.
func runSearchCold(cfg config) (*outcome, error) {
	wl := cfg.Workload
	// Set-up is what a library user pays before steady state: the world
	// set (spec parse, P2V translation, catalogs) and the first search of
	// every program, which is where lazily built rule indexes are paid.
	var (
		e     *env
		first *searched
		setup []float64
	)
	for i := 0; i < cfg.Workload.SetupReps; i++ {
		s, err := timeSetup(func() (err error) {
			if e, err = newEnv(cfg); err == nil {
				first, err = searchPoolOnce(e, wl.Pool)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)
	}
	refs := first.refs
	g, err := e.gatePool(wl.Pool, refs)
	if err != nil {
		return nil, err
	}
	if err := checkDeterminism(e, wl.Pool, first.counters); err != nil {
		return nil, err
	}

	rs := roundLoop(cfg, wl.Pool, func(p program) (time.Duration, error) {
		w, tree, want, err := e.build(p)
		if err != nil {
			return 0, err
		}
		opt := volcano.NewOptimizer(w.RS)
		t0 := time.Now()
		plan, err := opt.Optimize(tree, want)
		d := time.Since(t0)
		if err != nil {
			return d, fmt.Errorf("%s: %w", p, err)
		}
		if ref := refs[p]; plan.String() != ref.PlanText || !sameCost(plan.Cost(w.RS.Class), ref.Cost) {
			return d, fmt.Errorf("%s: plan %s differs from verified reference %s", p, plan, ref.PlanText)
		}
		return d, nil
	})

	var typical []program
	for _, p := range wl.Pool {
		if p.World != oodbVolcano {
			typical = append(typical, p)
		}
	}
	m, err := libraryMetrics(wl, rs, typical, setup)
	if err != nil {
		return nil, err
	}
	return &outcome{Attempted: rs.Attempted, Failed: rs.Failed, Err: rs.FirstErr, Metrics: m, Gate: g,
		Notes: []string{rs.Note}}, nil
}

// execFixture is the prepared state of exec_plans: the large database,
// one optimized plan per program, and the row count each produced the
// first time it ran.
type execFixture struct {
	e     *env
	db    *data.DB
	props exec.Props
	plans map[program]*volcano.PExpr
	refs  map[program]answer
}

func newExecFixture(cfg config) (*execFixture, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	w, err := e.world(oodbVolcano)
	if err != nil {
		return nil, err
	}
	f := &execFixture{
		e: e, db: data.Populate(w.Cat, catalogSeed, execRows), props: w.ExecProps,
		plans: map[program]*volcano.PExpr{}, refs: map[program]answer{},
	}
	for _, p := range cfg.Workload.Pool {
		plan, _, _, err := e.optimize(p)
		if err != nil {
			return nil, err
		}
		pj, err := wirePlan(plan)
		if err != nil {
			return nil, fmt.Errorf("%s: encode plan: %w", p, err)
		}
		f.plans[p] = plan
		rows, _, err := f.execute(p)
		if err != nil {
			return nil, err
		}
		f.refs[p] = answer{PlanText: plan.String(), Cost: plan.Cost(w.RS.Class), PlanJSON: string(pj), Rows: rows}
	}
	return f, nil
}

// execute compiles and runs one plan with the zero-value ExecOptions:
// the serial engine.
func (f *execFixture) execute(p program) (rows int, d time.Duration, err error) {
	t0 := time.Now()
	it, err := exec.NewCompiler(f.db, f.props).Compile(f.plans[p].ToExpr())
	if err != nil {
		return 0, time.Since(t0), fmt.Errorf("%s: compile: %w", p, err)
	}
	res, err := exec.Run(it)
	d = time.Since(t0)
	if err != nil {
		return 0, d, fmt.Errorf("%s: run: %w", p, err)
	}
	return len(res.Rows), d, nil
}

// runExecPlans: optimize each program once, then every round compiles
// and runs every plan on the large database.
func runExecPlans(cfg config) (*outcome, error) {
	wl := cfg.Workload
	// Set-up: the world set, the generated rows, one search and one first
	// execution per program.
	var (
		f     *execFixture
		setup []float64
	)
	for i := 0; i < cfg.Workload.SetupReps; i++ {
		s, err := timeSetup(func() (err error) {
			f, err = newExecFixture(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)
	}
	g, err := f.e.gatePool(wl.Pool, f.refs)
	if err != nil {
		return nil, err
	}
	rs := roundLoop(cfg, wl.Pool, func(p program) (time.Duration, error) {
		rows, d, err := f.execute(p)
		if err != nil {
			return d, err
		}
		if rows != f.refs[p].Rows {
			return d, fmt.Errorf("%s: %d rows, verified reference %d", p, rows, f.refs[p].Rows)
		}
		return d, nil
	})
	m, err := libraryMetrics(wl, rs, wl.Pool, setup)
	if err != nil {
		return nil, err
	}
	return &outcome{Attempted: rs.Attempted, Failed: rs.Failed, Err: rs.FirstErr, Metrics: m, Gate: g,
		Notes: []string{rs.Note}}, nil
}
