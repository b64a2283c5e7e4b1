package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"prairie/internal/server"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// dumpProgram is one input of the plan dump: a query against a world of
// the registry its workload builds.
type dumpProgram struct {
	world string
	q     server.QuerySpec
}

// dumpWorkload restates one workload of the repository benchmark
// (bench/workloads.go, a module of its own): the registry it builds —
// catalog width and whether the dsl world is in it — and its pool, in
// the pool's order.
type dumpWorkload struct {
	name string
	maxN int
	dsl  bool
	pool []dumpProgram
}

// paperQueries is the benchmark's paperSet: the four expression families
// on linear graphs, the star graph, and E2/n5.
var paperQueries = []server.QuerySpec{
	{Family: "E1", N: 6}, {Family: "E1", N: 6, Graph: "star"}, {Family: "E2", N: 4},
	{Family: "E3", N: 4}, {Family: "E4", N: 3}, {Family: "E2", N: 5},
}

func dumpSearchPool() []dumpProgram {
	var pool []dumpProgram
	for _, w := range []string{"oodb/prairie", "oodb/volcano"} {
		for _, q := range paperQueries {
			pool = append(pool, dumpProgram{w, q})
		}
	}
	return append(pool,
		dumpProgram{"relational", server.QuerySpec{Family: "E1", N: 6}},
		dumpProgram{"dsl", server.QuerySpec{Family: "E1", N: 6}})
}

// dumpServePool is the benchmark's servePool, shuffled with the same
// constant.
func dumpServePool(maxOODB int) []dumpProgram {
	var pool []dumpProgram
	for _, w := range []string{"oodb/prairie", "oodb/volcano"} {
		for _, fam := range []string{"E1", "E2", "E3"} {
			for _, g := range []string{"", "star"} {
				for n := 2; n <= maxOODB; n++ {
					pool = append(pool, dumpProgram{w, server.QuerySpec{Family: fam, N: n, Graph: g}})
				}
			}
		}
	}
	for n := 2; n <= 6; n++ {
		pool = append(pool, dumpProgram{"relational", server.QuerySpec{Family: "E1", N: n}})
	}
	rand.New(rand.NewSource(1995)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

func dumpExecPool() []dumpProgram {
	var pool []dumpProgram
	for _, q := range []server.QuerySpec{
		{Family: "E1", N: 4}, {Family: "E1", N: 6}, {Family: "E1", N: 8},
		{Family: "E2", N: 3}, {Family: "E2", N: 4}, {Family: "E4", N: 3},
	} {
		pool = append(pool, dumpProgram{"oodb/volcano", q})
	}
	return pool
}

// benchmarkCatalogSeed is the benchmark's catalogSeed (optserve's default
// -seed).
const benchmarkCatalogSeed = 101

var dumpWorkloads = []dumpWorkload{
	{"search_cold", 6, true, dumpSearchPool()},
	{"serve_warm", 6, false, dumpServePool(4)},
	{"serve_churn", 6, false, dumpServePool(5)},
	{"exec_plans", 8, false, dumpExecPool()},
}

// digest is the first 16 hex digits of s's SHA-256.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// PlanDump searches every program of the benchmark's four workload pools
// cold, cacheless and unbudgeted, on the registry its workload builds,
// and prints one row per program: digests of the plan text, of the wire
// plan and of the memo's dump (Memo.Dump), the plan's cost, and the
// search's counters. Two commits that search alike print the same table
// byte for byte (`make samebytes BASE=<rev>` diffs them); the DSL world
// compiles the specification at opts.DSLPath (default
// examples/dslrules/rules.prairie).
func PlanDump(opts Options) (*Table, error) {
	path := opts.DSLPath
	if path == "" {
		path = "examples/dslrules/rules.prairie"
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Plan dump: the benchmark's workload pools, searched cold",
		Header: []string{"workload", "world", "query", "plan", "cost", "wire",
			"groups", "exprs", "merges", "fired", "costed", "pruned", "memo"},
	}
	for _, wl := range dumpWorkloads {
		dsl := ""
		if wl.dsl {
			dsl = string(src)
		}
		reg, err := server.DefaultRegistry(wl.maxN, benchmarkCatalogSeed, dsl)
		if err != nil {
			return nil, err
		}
		for _, p := range wl.pool {
			row, err := dumpRow(reg, p)
			if err != nil {
				return nil, fmt.Errorf("%s %s %s: %w", wl.name, p.world, p.q, err)
			}
			t.Rows = append(t.Rows, append([]string{wl.name, p.world, p.q.String()}, row...))
		}
	}
	return t, nil
}

func dumpRow(reg *server.Registry, p dumpProgram) ([]string, error) {
	w, ok := reg.Lookup(p.world)
	if !ok {
		return nil, fmt.Errorf("no world %s", p.world)
	}
	tree, want, err := w.Build(p.q)
	if err != nil {
		return nil, err
	}
	opt := volcano.NewOptimizer(w.RS)
	plan, err := opt.Optimize(tree, want)
	if err != nil {
		return nil, err
	}
	node, err := wire.EncodePlan(plan)
	if err != nil {
		return nil, err
	}
	pj, err := json.Marshal(node)
	if err != nil {
		return nil, err
	}
	st := opt.Stats
	fired := 0
	for _, n := range st.TransFired {
		fired += n
	}
	itoa := strconv.Itoa
	return []string{
		digest(plan.String()), strconv.FormatFloat(plan.Cost(w.RS.Class), 'g', -1, 64), digest(string(pj)),
		itoa(st.Groups), itoa(st.Exprs), itoa(st.Merges), itoa(fired), itoa(st.CostedPlans), itoa(st.Pruned),
		digest(opt.Memo.Dump()),
	}, nil
}
