package prairie_test

import (
	"math/rand"
	"testing"

	"prairie/internal/core"
	"prairie/internal/qgen"
	"prairie/internal/server"
	"prairie/internal/volcano"
)

// churnPrograms is the benchmark's serve_churn pool
// (bench/workloads.go's servePool(5)): both OODB worlds × {E1,E2,E3} ×
// {linear,star} × n in 2..5, then relational n in 2..6, shuffled once
// with the constant 1995. Its order is the zipf popularity rank.
func churnPrograms() []coldProgram {
	var pool []coldProgram
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
	rand.New(rand.NewSource(1995)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// churnReplay is serve_churn's request stream replayed on one goroutine
// through one 32-entry plan cache: the 53-program pool, its 1024-draw
// zipf cycle (s = 1.1, seed 101, as bench/serve.go's requestCycle) walked
// laps times from the start, each request searched as the server does
// (a fresh optimizer over the world's shared rule set and a prepared
// tree). Every answer's plan text must equal the program's cold,
// cacheless plan. Miss work is the search work of the requests that
// missed: their trans_rule firings plus costed plans.
type churnReplay struct {
	requests, hits int
	missWork       int
}

func (r churnReplay) hitRate() float64 { return float64(r.hits) / float64(r.requests) }

// workPerRequest is the search work an average request triggers.
func (r churnReplay) workPerRequest() float64 { return float64(r.missWork) / float64(r.requests) }

// churnSetup builds serve_churn's registry (optserve's defaults: six
// classes, seed 101, no DSL world), every program's prepared tree and
// its cold plan text.
type churnSetup struct {
	reg   *server.Registry
	pool  []coldProgram
	trees []*core.Expr
	wants []*core.Descriptor
	cold  []string
}

func newChurnSetup(tb testing.TB) *churnSetup {
	tb.Helper()
	reg, err := server.DefaultRegistry(6, 101, "")
	if err != nil {
		tb.Fatal(err)
	}
	s := &churnSetup{reg: reg, pool: churnPrograms()}
	for _, p := range s.pool {
		w, ok := reg.Lookup(p.world)
		if !ok {
			tb.Fatalf("no world %s", p.world)
		}
		tree, want, err := w.Build(p.q)
		if err != nil {
			tb.Fatalf("%s %s: %v", p.world, p.q, err)
		}
		plan, err := volcano.NewOptimizer(w.RS).Optimize(tree, want)
		if err != nil {
			tb.Fatalf("%s %s: %v", p.world, p.q, err)
		}
		s.trees, s.wants, s.cold = append(s.trees, tree), append(s.wants, want), append(s.cold, plan.String())
	}
	return s
}

func (s *churnSetup) replay(tb testing.TB, laps int) churnReplay {
	tb.Helper()
	pc := volcano.NewPlanCache(32)
	var r churnReplay
	draws := qgen.ZipfDraws(len(s.pool), 1024, 1.1, 101)
	for lap := 0; lap < laps; lap++ {
		for _, i := range draws {
			p := s.pool[i]
			w, _ := s.reg.Lookup(p.world)
			opt := volcano.NewOptimizer(w.RS)
			opt.Opts.Cache = pc
			plan, err := opt.Optimize(s.trees[i], s.wants[i])
			if err != nil {
				tb.Fatalf("%s %s: %v", p.world, p.q, err)
			}
			r.requests++
			if opt.Stats.CacheHits > 0 {
				r.hits++
			} else {
				r.missWork += opt.Stats.CostedPlans
				for _, n := range opt.Stats.TransFired {
					r.missWork += n
				}
			}
			if got := plan.String(); got != s.cold[i] {
				tb.Fatalf("%s %s (hit %v): plan %s, cold plan %s", p.world, p.q, opt.Stats.CacheHits > 0, got, s.cold[i])
			}
		}
	}
	return r
}

// churnLaps is how many times the replay walks the request cycle.
const churnLaps = 4

// TestChurnReplay replays serve_churn's request cycle through a 32-entry
// plan cache and checks every answer against its cold plan. A plain LRU
// read a 0.8997 hit rate and 110.8 units of search work per request
// (453 845 over 4 096 requests): it evicted the few plans that take
// milliseconds to search as readily as those that take microseconds.
// Weighing each entry by its search work keeps the costly ones: 0.8640
// and 18.3 (75 014). The pins are a fifth of the LRU's work and a hit
// rate of 0.83.
func TestChurnReplay(t *testing.T) {
	r := newChurnSetup(t).replay(t, churnLaps)
	t.Logf("serve_churn replay: %d requests, hit rate %.4f, miss work %d (%.1f per request)",
		r.requests, r.hitRate(), r.missWork, r.workPerRequest())
	const lru = 453_845
	if r.missWork*5 > lru {
		t.Errorf("miss work %d, ceiling %d (a fifth of the LRU's %d)", r.missWork, lru/5, lru)
	}
	if r.hitRate() < 0.83 {
		t.Errorf("hit rate %.4f, floor 0.83", r.hitRate())
	}
}

// BenchmarkChurnReplay is one churn replay per op, on a fresh cache:
// work/request is the search work (trans_rule firings plus costed plans)
// an average request triggers, hit-rate the share served from the cache.
func BenchmarkChurnReplay(b *testing.B) {
	s := newChurnSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var r churnReplay
	for i := 0; i < b.N; i++ {
		r = s.replay(b, churnLaps)
	}
	b.ReportMetric(r.workPerRequest(), "work/request")
	b.ReportMetric(r.hitRate(), "hit-rate")
}
