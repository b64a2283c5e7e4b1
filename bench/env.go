package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/prairielang"
	"prairie/internal/server"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// config is one benchmark run as the command line describes it.
type config struct {
	Workload workload
	Seed     int64
	// Seconds is how long the timed region measures.
	Seconds float64
	Trace   bool
	// Root is the repository checkout; OutDir receives traces and child
	// logs, BinDir the optserve binary the runner builds.
	Root, OutDir, BinDir string
	// Warmup is how many untimed passes over the pool precede timing.
	Warmup int
}

// findRoot walks up from the working directory to the checkout root,
// recognised by the service binary's source: the runner is started from
// the root by run.sh and from bench/ by `go run -C bench .`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "optserve", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (cmd/optserve + BENCHMARK.json) above the working directory")
		}
		dir = parent
	}
}

// dslSource reads the example rule specification the dsl world serves.
func dslSource(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "examples", "dslrules", "rules.prairie"))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// dslHelpers are the two helpers rules.prairie imports, restated here
// so the parse/compile layer can be timed through its public entry
// point alone.
func dslHelpers() map[string]prairielang.HelperImpl {
	return map[string]prairielang.HelperImpl{
		"nlogn": func(args []core.Value) (core.Value, error) {
			n := math.Max(float64(args[0].(core.Float)), 1)
			return core.Float(n * math.Log2(n+1)), nil
		},
		"order_within": func(args []core.Value) (core.Value, error) {
			return core.Bool(args[0].(core.Order).Within(args[1].(core.Attrs))), nil
		},
	}
}

// env is the prepared world set of one run plus the gate's databases.
type env struct {
	reg  *server.Registry
	seed int64
	// small holds each world's gateRows database, built on first use.
	small map[string]*data.DB
}

func newEnv(cfg config) (*env, error) {
	src := ""
	if cfg.Workload.DSL {
		var err error
		if src, err = dslSource(cfg.Root); err != nil {
			return nil, err
		}
	}
	reg, err := server.DefaultRegistry(cfg.Workload.MaxN, catalogSeed, src)
	if err != nil {
		return nil, err
	}
	return &env{reg: reg, seed: cfg.Seed, small: map[string]*data.DB{}}, nil
}

func (e *env) world(name string) (*server.World, error) {
	w, ok := e.reg.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("world %s is not in the registry", name)
	}
	return w, nil
}

func (e *env) build(p program) (*server.World, *core.Expr, *core.Descriptor, error) {
	w, err := e.world(p.World)
	if err != nil {
		return nil, nil, nil, err
	}
	tree, want, err := w.Build(p.Spec)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: build: %w", p, err)
	}
	return w, tree, want, nil
}

// optimize runs one cold, cacheless, unobserved search.
func (e *env) optimize(p program) (*volcano.PExpr, *volcano.Stats, *server.World, error) {
	w, tree, want, err := e.build(p)
	if err != nil {
		return nil, nil, nil, err
	}
	opt := volcano.NewOptimizer(w.RS)
	plan, err := opt.Optimize(tree, want)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: optimize: %w", p, err)
	}
	return plan, opt.Stats, w, nil
}

// answer is the verified reference of one program: what every timed
// response for it is compared against.
type answer struct {
	PlanText string
	Cost     float64
	// PlanJSON is the wire encoding of the plan tree; service responses
	// must repeat it byte for byte.
	PlanJSON string
	// Rows is the executed row count on the run's large database
	// (exec_plans only).
	Rows int
}

// wirePlan renders a plan the way the service does.
func wirePlan(plan *volcano.PExpr) ([]byte, error) {
	node, err := wire.EncodePlan(plan)
	if err != nil {
		return nil, err
	}
	return json.Marshal(node)
}

// gate checks one program's answer, untimed: the wire plan is decoded
// against the benchmark's own copy of the world, executed on a small
// database, and bag-compared with the naive interpreter's evaluation of
// the logical query — a reference that shares no code with the
// optimizer or the executor's operators. Worlds without a catalog (dsl)
// cannot be executed; their plans are only decoded. nonEmpty reports
// whether the oracle's bag had rows, so vacuous checks are visible.
func (e *env) gate(p program, planJSON []byte) (executed, nonEmpty bool, err error) {
	w, tree, _, err := e.build(p)
	if err != nil {
		return false, false, err
	}
	var node wire.PlanNode
	if err := json.Unmarshal(planJSON, &node); err != nil {
		return false, false, fmt.Errorf("%s: plan json: %w", p, err)
	}
	decoded, err := wire.DecodePlan(w.RS.Algebra, &node)
	if err != nil {
		return false, false, fmt.Errorf("%s: decode plan: %w", p, err)
	}
	if w.Cat == nil {
		return false, false, nil
	}
	db := e.small[p.World]
	if db == nil {
		db = data.Populate(w.Cat, e.seed, gateRows)
		e.small[p.World] = db
	}
	it, err := exec.NewCompiler(db, w.ExecProps).Compile(decoded)
	if err != nil {
		return false, false, fmt.Errorf("%s: compile: %w", p, err)
	}
	got, err := exec.Run(it)
	if err != nil {
		return false, false, fmt.Errorf("%s: run: %w", p, err)
	}
	want, err := (&exec.Naive{DB: db, P: w.ExecProps}).Eval(tree)
	if err != nil {
		return false, false, fmt.Errorf("%s: naive: %w", p, err)
	}
	if !exec.SameBag(got, want) {
		return true, len(want.Rows) > 0, fmt.Errorf("%s: plan returns %d rows, naive interpreter %d: bags differ", p, len(got.Rows), len(want.Rows))
	}
	return true, len(want.Rows) > 0, nil
}

// gateResult summarises the gate over a pool.
type gateResult struct {
	Checked, Executed, NonEmpty int
}

func (g gateResult) nonEmptyShare() float64 {
	if g.Executed == 0 {
		return 0
	}
	return float64(g.NonEmpty) / float64(g.Executed)
}

// gatePool gates every program's reference answer and checks that the
// Prairie-generated and hand-coded OODB optimizers agree on the winner's
// cost for every query both were asked.
func (e *env) gatePool(pool []program, refs map[program]answer) (gateResult, error) {
	var g gateResult
	for _, p := range pool {
		ref, ok := refs[p]
		if !ok {
			return g, fmt.Errorf("%s: no reference answer", p)
		}
		executed, nonEmpty, err := e.gate(p, []byte(ref.PlanJSON))
		if err != nil {
			return g, err
		}
		g.Checked++
		if executed {
			g.Executed++
		}
		if nonEmpty {
			g.NonEmpty++
		}
		if p.World == oodbPrairie {
			twin, ok := refs[program{oodbVolcano, p.Spec}]
			if ok && !sameCost(twin.Cost, ref.Cost) {
				return g, fmt.Errorf("%s: winner cost %v, hand-coded Volcano rules %v", p, ref.Cost, twin.Cost)
			}
		}
	}
	return g, nil
}

func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
