// Command optbench regenerates the paper's evaluation (Section 4): the
// rules-matched table (Table 5), the optimization-time figures (Figures
// 10–13), the equivalence-class growth figure (Figure 14), the §4.2
// rule-count comparison, and the relational-optimizer experiment of [5];
// plus the star-graph extension and the per-rule differential verifier
// (rulecheck). Serving, caching and execution are measured by the
// repository benchmark (bench/README.md), not here.
//
// Usage:
//
//	optbench -experiment all
//	optbench -experiment fig10 -maxclasses 6 -repeats 10 -csv
//	optbench -experiment fig13 -maxclasses 4 -json
//	optbench -experiment fig13 -max-exprs 5000 -degrade -timeout 50ms
//
// With -timeout or -degrade, over-budget points return gracefully
// degraded plans and are marked '*' in the tables instead of ending
// their series with 'exhausted'.
//
// Observability (see internal/obs):
//
//	optbench -experiment fig12 -httpaddr :8080        # /metrics, /vars, /debug/pprof/
//	optbench -experiment fig12 -trace-out run.json    # Chrome trace_event (chrome://tracing, Perfetto)
//	optbench -experiment fig12 -trace-jsonl run.jsonl # span trace, one JSON object per line
//	optbench -experiment fig12 -observe -json         # per-rule timing + degradation counts in JSON
//
// -json, -httpaddr, -trace-out, and -trace-jsonl all imply -observe.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prairie/internal/experiments"
	"prairie/internal/obs"
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
	maxExprs := fs.Int("maxexprs", 0, "search-space cap (0 = engine default)")
	fs.IntVar(maxExprs, "max-exprs", 0, "alias for -maxexprs")
	timeout := fs.Duration("timeout", 0,
		"per-optimization wall-clock budget (0 = none); points over budget degrade and are marked '*'")
	degrade := fs.Bool("degrade", false,
		"treat -maxexprs as a soft budget: over-budget points return degraded plans (marked '*') and sweeps continue instead of ending the series")
	dslPath := fs.String("dsl", "",
		"Prairie spec for -experiment rulecheck's DSL world (default examples/dslrules/rules.prairie)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit JSON instead of aligned tables")
	observe := fs.Bool("observe", false,
		"enable per-rule timing and metrics collection (implied by -json, -httpaddr, -trace-out, -trace-jsonl)")
	httpAddr := fs.String("httpaddr", "",
		"serve /metrics, /vars, /trace, and /debug/pprof/ on this address (e.g. :8080 or :0)")
	traceOut := fs.String("trace-out", "",
		"write a Chrome trace_event file here (load in chrome://tracing or Perfetto)")
	traceJSONL := fs.String("trace-jsonl", "", "write the span trace as JSON lines here")
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

	// Observability: per-rule timing feeds the tables; the tracer is
	// only attached when a trace sink (file or HTTP) can consume it.
	var ob *obs.Observer
	if *observe || *jsonOut || *httpAddr != "" || *traceOut != "" || *traceJSONL != "" {
		ob = &obs.Observer{Metrics: obs.NewRegistry(), RuleTiming: true}
		if *traceOut != "" || *traceJSONL != "" || *httpAddr != "" {
			ob.Tracer = obs.NewTracer()
		}
	}
	if *httpAddr != "" {
		addr, closer, err := obs.Serve(*httpAddr, obs.NewMux(ob.Metrics, ob.Tracer, nil))
		if err != nil {
			return fail(err)
		}
		defer closer()
		fmt.Fprintf(stderr, "optbench: serving metrics and pprof on http://%s/\n", addr)
	}

	opts := experiments.Options{
		MaxClasses: *maxClasses,
		Repeats:    *repeats,
		MaxExprs:   *maxExprs,
		Timeout:    *timeout,
		Degrade:    *degrade,
		Obs:        ob,
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

	if ob == nil || ob.Tracer == nil {
		return 0
	}
	for _, sink := range []struct {
		path  string
		write func(io.Writer) error
	}{{*traceOut, ob.Tracer.WriteChrome}, {*traceJSONL, ob.Tracer.WriteJSONL}} {
		if sink.path == "" {
			continue
		}
		f, err := os.Create(sink.path)
		if err != nil {
			return fail(err)
		}
		if err := sink.write(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "optbench: wrote %d trace events to %s (%d dropped)\n",
			ob.Tracer.Len(), sink.path, ob.Tracer.Dropped())
	}
	return 0
}
