// Command optshell optimizes (and optionally executes) one query against
// the reconstructed Open OODB optimizer: it builds an E1–E4 workload
// over a synthetic catalog, runs the Prairie-generated optimizer, and
// prints the winning access plan, its estimated cost, and the search
// statistics.
//
// Usage:
//
//	optshell -expr E3 -n 3 -indexed -execute
//
// Trailing arguments are inspection commands run after the
// optimization, and -i opens an interactive prompt with the same
// commands:
//
//	optshell -expr E3 -n 3 :stats ':explain 0'
//	optshell -expr E2 -n 4 -i
//
// Commands: :stats (search statistics plus per-rule wall time),
// :explain <group> (a memo group's expressions with rule provenance
// and its memoized winners; a merged id names the group it joined),
// :memo (every live group, by id: ids run past the group count once
// groups merge),
// :cache (plan-cache counters), :help, :quit.
//
// With -cache and -repeat, the query is optimized repeatedly through a
// cross-query plan cache — the first run misses and populates it, later
// runs are full hits:
//
//	optshell -expr E2 -n 4 -cache -repeat 3 :cache
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"prairie/internal/core"
	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/obs"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

func main() {
	expr := flag.String("expr", "E1", "expression family: E1, E2, E3 or E4")
	n := flag.Int("n", 3, "number of classes (joins = n-1)")
	indexed := flag.Bool("indexed", false, "give every class an index on its selection attribute")
	seed := flag.Int64("seed", 101, "catalog instance seed")
	execute := flag.Bool("execute", false, "run the winning plan on synthetic data")
	maxRows := flag.Int("maxrows", 256, "rows per table when executing")
	baseline := flag.Bool("volcano", false, "use the hand-coded Volcano rule set instead of the Prairie-generated one")
	trace := flag.Bool("trace", false, "print a trace of rule firings and costed alternatives")
	timeout := flag.Duration("timeout", 0,
		"wall-clock optimization budget (0 = none); over budget, a degraded plan is returned")
	budgetExprs := flag.Int("budget-exprs", 0,
		"cap on memo expressions (0 = engine default); over budget, a degraded plan is returned")
	cache := flag.Bool("cache", false,
		"attach a cross-query plan cache; with -repeat, runs after the first are served from it")
	repeat := flag.Int("repeat", 1,
		"optimize the query this many times; pairs with -cache to show the hit path")
	interactive := flag.Bool("i", false, "after optimizing, read inspection commands (:stats, :explain ...) from stdin")
	flag.Parse()
	commands := flag.Args()

	family, err := qgen.ParseKind(*expr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optshell:", err)
		os.Exit(2)
	}

	cat := qgen.Catalog(*n, *seed, *indexed)
	o := oodb.New(cat)
	var vrs *volcano.RuleSet
	var rep *p2v.Report
	if *baseline {
		vrs = o.VolcanoRules()
	} else {
		var err error
		vrs, rep, err = p2v.Translate(o.PrairieRules())
		if err != nil {
			fatal(err)
		}
	}

	tree, err := qgen.Build(o, family, *n)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query (%s, %d classes%s):\n  %s\n\n", family, *n, indexedLabel(*indexed), tree)
	req := o.Alg.NewDesc()
	if rep != nil {
		tree, req, err = rep.PrepareQuery(tree, req)
		if err != nil {
			fatal(err)
		}
	}
	var plan *core.Expr
	var stats *volcano.Stats
	var opt *volcano.Optimizer // the last run's, for :explain / :memo
	var pc *volcano.PlanCache  // for :cache
	inspect := *interactive || len(commands) > 0
	if *cache {
		pc = volcano.NewPlanCache(512)
	}
	reps := max(*repeat, 1)
	for i := 0; i < reps; i++ {
		opt = volcano.NewOptimizer(vrs)
		opt.Opts.Budget = volcano.Budget{Timeout: *timeout, MaxExprs: *budgetExprs}
		opt.Opts.Cache = pc
		if inspect {
			// Inspection wants per-rule wall time attributed, so the
			// run is observed; plans and stats are unaffected.
			opt.Opts.Obs = &obs.Observer{RuleTiming: true}
		}
		if *trace && i == 0 {
			opt.OnEvent = func(e volcano.Event) { fmt.Println(e) }
		}
		start := time.Now()
		plan, err = opt.Optimize(tree.Clone(), req)
		elapsed := time.Since(start)
		stats = opt.Stats
		if err != nil {
			break
		}
		if reps > 1 {
			fmt.Printf("run %d/%d: %v (cache hits=%d misses=%d)\n",
				i+1, reps, elapsed, stats.CacheHits, stats.CacheMisses)
		}
	}
	if reps > 1 {
		fmt.Println()
	}
	if err != nil {
		fatal(err)
	}
	if stats.Degraded {
		fmt.Printf("budget exhausted (%s): plan degraded via %s\n\n", stats.DegradeCause, stats.DegradePath)
	}
	fmt.Printf("winning plan (cost %.1f):\n  %s\n\n", plan.Cost(vrs.Class), plan)
	fmt.Print(plan.Explain(vrs.Class))
	fmt.Printf("\nsearch: %s\n", stats)

	if *execute {
		db := data.Populate(cat, *seed, *maxRows)
		comp := exec.NewCompiler(db, exec.Props{
			Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
		})
		it, err := comp.Compile(plan)
		if err != nil {
			fatal(err)
		}
		res, err := exec.Run(it)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nexecuted: %d tuples, %d columns\n", len(res.Rows), len(res.Schema))
		for i, row := range res.Rows {
			if i == 5 {
				fmt.Println("  ...")
				break
			}
			cells := make([]string, len(row))
			for c, d := range row {
				cells[c] = db.Pool().Format(d)
			}
			fmt.Printf("  %v\n", cells)
		}
	}

	for _, cmd := range commands {
		if !runCommand(cmd, stats, opt, pc) {
			return
		}
	}
	if *interactive {
		sc := bufio.NewScanner(os.Stdin)
		fmt.Print("optshell> ")
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" && !runCommand(line, stats, opt, pc) {
				return
			}
			fmt.Print("optshell> ")
		}
	}
}

// runCommand executes one inspection command; it returns false when the
// session should end.
func runCommand(line string, stats *volcano.Stats, opt *volcano.Optimizer, pc *volcano.PlanCache) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":stats":
		fmt.Print(stats)
		if t := stats.RuleTimeTable(); t != "" {
			fmt.Print(t)
		}
	case ":explain":
		if len(fields) != 2 {
			fmt.Println("usage: :explain <group>")
			break
		}
		g, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Printf("optshell: bad group %q\n", fields[1])
			break
		}
		out, err := opt.ExplainGroup(volcano.GroupID(g))
		if err != nil {
			fmt.Println("optshell:", err)
			break
		}
		fmt.Print(out)
	case ":memo":
		for _, g := range opt.Memo.Groups() {
			out, err := opt.ExplainGroup(g.ID)
			if err != nil {
				fmt.Println("optshell:", err)
				break
			}
			fmt.Print(out)
		}
	case ":cache":
		fmt.Println(pc.String())
	case ":help":
		fmt.Println("commands: :stats  :explain <group>  :memo  :cache  :help  :quit")
	case ":quit", ":q", ":exit":
		return false
	default:
		fmt.Printf("optshell: unknown command %q (try :help)\n", fields[0])
	}
	return true
}

func indexedLabel(b bool) string {
	if b {
		return ", indexed"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optshell:", err)
	os.Exit(1)
}
