// Command optbench regenerates the paper's evaluation (Section 4): the
// rules-matched table (Table 5), the optimization-time figures (Figures
// 10–13), the equivalence-class growth figure (Figure 14), the §4.2
// rule-count comparison, and the relational-optimizer experiment of [5];
// plus the star-graph extension, the per-rule differential verifier
// (rulecheck) and the plan dump of the benchmark's workload pools
// (plandump, which `make samebytes` diffs across commits). Serving,
// caching and execution are measured by the repository benchmark
// (bench/README.md), not here.
//
// Usage:
//
//	optbench -experiment all
//	optbench -experiment fig10 -maxclasses 6 -repeats 10 -csv
//	optbench -experiment fig13 -maxclasses 4 -json
//	optbench -experiment fig14 -maxexprs 1000
//	optbench -experiment fig13 -timeout 50ms
//	optbench -experiment plandump -csv
//
// Each optimization runs under one budget, -maxexprs and -timeout, and
// running out of it degrades. A point degraded by -maxexprs (or by the
// engine's default expression guard) ends its series as 'exhausted', the
// paper's memory wall; a point degraded by -timeout is marked '*' and
// the sweep continues.
//
// The searches run unobserved, so the times are the paper's measurement;
// -csv and -json only choose the encoding of the same table. Per-rule
// timing of one query is optshell's :stats.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prairie/internal/experiments"
)

type experiment func(experiments.Options) (*experiments.Table, error)

// experimentTable lists the experiments in the order -experiment's help
// names them.
var experimentTable = []struct {
	name string
	run  experiment
}{
	{"table5", func(o experiments.Options) (*experiments.Table, error) { return experiments.Table5(4, o) }},
	{"fig10", func(o experiments.Options) (*experiments.Table, error) { return experiments.Figure(10, o) }},
	{"fig11", func(o experiments.Options) (*experiments.Table, error) { return experiments.Figure(11, o) }},
	{"fig12", func(o experiments.Options) (*experiments.Table, error) { return experiments.Figure(12, o) }},
	{"fig13", func(o experiments.Options) (*experiments.Table, error) { return experiments.Figure(13, o) }},
	{"fig14", experiments.Figure14},
	{"rules", func(experiments.Options) (*experiments.Table, error) { return experiments.RuleCounts() }},
	{"relopt", experiments.Relopt},
	{"star", experiments.StarGraphs},
	{"rulecheck", experiments.RuleCheck},
	{"plandump", experiments.PlanDump},
}

// allExperiments is what -experiment all runs, in order.
var allExperiments = []string{"rules", "table5", "fig10", "fig11", "fig12", "fig13", "fig14", "relopt"}

// lookup returns the named experiment, nil when there is none.
func lookup(name string) experiment {
	for _, e := range experimentTable {
		if e.name == name {
			return e.run
		}
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit status (2 for a usage error, 1 for a failed experiment).
func run(args []string, stdout, stderr io.Writer) int {
	valid := make([]string, 0, len(experimentTable)+1)
	for _, e := range experimentTable {
		valid = append(valid, e.name)
	}
	valid = append(valid, "all")

	fs := flag.NewFlagSet("optbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("experiment", "all", "one of: "+strings.Join(valid, ", "))
	maxClasses := fs.Int("maxclasses", 0, "max classes per family (0 = paper's ranges)")
	repeats := fs.Int("repeats", 0, "optimizations per timing point (0 = adaptive)")
	maxExprs := fs.Int("maxexprs", 0,
		"per-optimization expression budget (0 = engine default); a point that reaches it ends its series as 'exhausted'")
	timeout := fs.Duration("timeout", 0,
		"per-optimization wall-clock budget (0 = none); points over budget degrade and are marked '*'")
	dslPath := fs.String("dsl", "",
		"Prairie spec for the DSL world of -experiment rulecheck and plandump (default examples/dslrules/rules.prairie)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit JSON instead of aligned tables")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	names := []string{*which}
	if *which == "all" {
		names = allExperiments
	}
	if lookup(names[0]) == nil {
		fmt.Fprintf(stderr, "optbench: unknown experiment %q (valid: %s)\n", *which, strings.Join(valid, ", "))
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "optbench:", err)
		return 1
	}

	opts := experiments.Options{
		MaxClasses: *maxClasses,
		Repeats:    *repeats,
		MaxExprs:   *maxExprs,
		Timeout:    *timeout,
		DSLPath:    *dslPath,
	}
	for _, name := range names {
		t, err := lookup(name)(opts)
		if err != nil {
			return fail(err)
		}
		switch {
		case *jsonOut:
			s, err := t.JSON()
			if err != nil {
				return fail(err)
			}
			fmt.Fprint(stdout, s)
		case *csv:
			fmt.Fprintln(stdout, t.Title)
			fmt.Fprint(stdout, t.CSV())
		default:
			fmt.Fprintln(stdout, t.String())
		}
	}
	return 0
}
