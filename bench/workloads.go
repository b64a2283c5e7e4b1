package main

import (
	"fmt"
	"math/rand"

	"prairie/internal/server"
)

// A program is one input of the optimizer: a query spec against a named
// world (rule set + catalog). It is the unit every per-program median,
// reference answer and trace operation is keyed by.
type program struct {
	World string
	Spec  server.QuerySpec
}

func (p program) String() string { return p.World + " " + p.Spec.String() }

// A workload is one set of inputs the benchmark runs. Service workloads
// drive an optserve child over HTTP; library workloads call the Go API.
type workload struct {
	Name string
	Why  string
	// MaxN is the catalog width the registry is built with (optserve's
	// -max-n default for the service workloads).
	MaxN int
	// DSL adds the examples/dslrules world to the registry.
	DSL bool
	// Pool is the fixed program set; its order is the zipf popularity
	// rank for service workloads and the round order for library ones.
	Pool []program
	// Service workloads only: optserve's -cache-size (0 = its default,
	// 512) — the one flag serve_churn changes.
	Service   bool
	CacheSize int
	// RSSAfter is the request count at which a service workload reads
	// the child's peak resident set. optserve's default tracer keeps its
	// newest 2^20 events, so through a 20 s run the server is still
	// growing with every request served: read at the end, the peak
	// followed the host's speed (73 MB after 65k requests, 95 MB after
	// 85k). Both counts are reached in 20 s at half the usual speed; a
	// run that falls short reads the peak at its end.
	RSSAfter int
	// SetupReps is how many times a run repeats set-up; setup_s is the
	// median. More where a set-up is short (serve_warm's is 0.15 s), fewer
	// where it takes about a second (serve_churn's).
	SetupReps int
}

const (
	oodbPrairie = "oodb/prairie"
	oodbVolcano = "oodb/volcano"
	relational  = "relational"
	dslWorld    = "dsl"

	// catalogSeed generates every world's catalog statistics, the rows
	// exec_plans runs on and the request cycle; it is optserve's default
	// -seed. The run's --seed decides where the request cycle starts, the
	// order programs run in and the rows the gate executes on, but not
	// the cardinalities or the measured rows: those change the amount of
	// work itself (measured over seeds 1..10: exec_plans' typical latency
	// 1.5 to 7.4 ms, serve_churn's throughput 156 to 491 req/s), which no
	// bound on a regression could absorb.
	catalogSeed = 101
	// zipfS is the popularity skew of the service request streams.
	zipfS = 1.1
	// execRows sizes each table of the executed database; the catalog's
	// cardinalities top out at 4096, so this is "unscaled".
	execRows = 4096
	// gateRows sizes the small database the correctness gate executes
	// every answer on next to the naive interpreter.
	gateRows = 256
)

// paperSet is the paper's experiment: the four expression families on
// linear graphs, the star graph it leaves as future work, and E2/n5,
// the join_assoc blow-up that dominates search time.
var paperSet = []server.QuerySpec{
	{Family: "E1", N: 6},
	{Family: "E1", N: 6, Graph: "star"},
	{Family: "E2", N: 4},
	{Family: "E3", N: 4},
	{Family: "E4", N: 3},
	{Family: "E2", N: 5},
}

// paperName is the metric suffix of a paperSet query (E1n6, E1n6star…).
func paperName(q server.QuerySpec) string {
	s := fmt.Sprintf("%sn%d", q.Family, q.N)
	if q.Graph == "star" {
		s += "star"
	}
	return s
}

// largest is the single most expensive program of each library
// workload; its median is that workload's latency_tail_us.
var largest = map[string]program{
	"search_cold": {oodbPrairie, server.QuerySpec{Family: "E2", N: 5}},
	"exec_plans":  {oodbVolcano, server.QuerySpec{Family: "E1", N: 8}},
}

func searchPool() []program {
	var pool []program
	for _, w := range []string{oodbPrairie, oodbVolcano} {
		for _, q := range paperSet {
			pool = append(pool, program{w, q})
		}
	}
	return append(pool,
		program{relational, server.QuerySpec{Family: "E1", N: 6}},
		program{dslWorld, server.QuerySpec{Family: "E1", N: 6}})
}

// servePool is {both OODB worlds} × {E1,E2,E3} × {linear,star} × n in
// 2..maxOODB plus relational n in 2..6, in an order shuffled once with a
// constant (not the run's seed): which query is hottest decides the hit
// path's plan size and the miss path's search cost, so it must not vary
// between seeds.
func servePool(maxOODB int) []program {
	var pool []program
	for _, w := range []string{oodbPrairie, oodbVolcano} {
		for _, fam := range []string{"E1", "E2", "E3"} {
			for _, g := range []string{"", "star"} {
				for n := 2; n <= maxOODB; n++ {
					pool = append(pool, program{w, server.QuerySpec{Family: fam, N: n, Graph: g}})
				}
			}
		}
	}
	for n := 2; n <= 6; n++ {
		pool = append(pool, program{relational, server.QuerySpec{Family: "E1", N: n}})
	}
	rand.New(rand.NewSource(1995)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

func execPool() []program {
	var pool []program
	for _, q := range []server.QuerySpec{
		{Family: "E1", N: 4}, {Family: "E1", N: 6}, {Family: "E1", N: 8},
		{Family: "E2", N: 3}, {Family: "E2", N: 4}, {Family: "E4", N: 3},
	} {
		pool = append(pool, program{oodbVolcano, q})
	}
	return pool
}

// workloads lists the four workloads in the order `-workload all` runs
// them. BENCHMARK.json repeats the names and reasons; the smoke test
// fails if the two drift.
var workloads = []workload{
	{
		Name: "search_cold", MaxN: 6, DSL: true, Pool: searchPool(), SetupReps: 7,
		Why: "library, no cache: search and rule actions do all the work; Prairie and hand-coded Volcano rules on identical queries (the paper's experiment)",
	},
	{
		Name: "serve_warm", MaxN: 6, Service: true, Pool: servePool(4), SetupReps: 9, RSSAfter: 25000,
		Why: "service, 41 specs fit the default 512-entry cache: every request is a hit, so only the fixed per-request path works and search is idle",
	},
	{
		Name: "serve_churn", MaxN: 6, Service: true, CacheSize: 32, Pool: servePool(5), SetupReps: 3, RSSAfter: 2500,
		Why: "service, 53 specs over a 32-entry cache: misses search and evict beside concurrent hits, so a cheaper hit bought with a costlier entry loses here",
	},
	{
		Name: "exec_plans", MaxN: 8, Pool: execPool(), SetupReps: 7,
		Why: "library, optimize once then compile and run plans on 4096-row tables: the executor does all the work and the optimizer none",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shrunk returns the workload with its pool cut to its last k programs
// (plus its largest program, which latency_tail_us needs): the smoke
// test's scale.
func (wl workload) shrunk(k int) workload {
	pool := append([]program(nil), wl.Pool[max(0, len(wl.Pool)-k):]...)
	if big, ok := largest[wl.Name]; ok {
		found := false
		for _, p := range pool {
			found = found || p == big
		}
		if !found {
			pool = append(pool, big)
		}
	}
	wl.Pool, wl.SetupReps = pool, 1
	return wl
}
