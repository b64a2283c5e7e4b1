// Command prairiec is the Prairie rule compiler — the repository's
// analogue of the paper's P2V pre-processor binary. It parses a Prairie
// rule-specification file, checks it, and reports the P2V translation:
// the automatic property classification, deduced enforcers, rule
// merging, and the resulting Volcano rule-set shape.
//
// Usage:
//
//	prairiec [-check] [-fmt] [-dump] [-verify] [-time] file.prairie
//
//	-check   parse and type-check only
//	-fmt     print the canonical formatting of the specification
//	-dump    also list the generated trans_rules/impl_rules/enforcers, each
//	         with its descriptor frame and the sub-expressions one firing
//	         evaluates once and shares; a trans_rule also with the cut of
//	         its statements — which run before the test, which decide the
//	         new nodes' identity, which are deferred until the memo keeps
//	         a node — or the reason it was left whole
//	-verify  differentially verify every trans_rule (JSON verdict table)
//	-time    report per-phase wall time (parse, check, compile, translate)
//
// Helper functions declared by the specification are bound to stub
// implementations (returning their result kind's default value): the
// translation itself never executes rule actions, so stubs suffice for
// compilation and reporting. Linking real helpers requires the Go API
// (package prairie). -verify does execute rule actions: it binds the
// example helpers (nlogn, order_within) where the specification declares
// them and stubs the rest, then runs internal/rulecheck's per-rule
// differential verifier over a synthetic catalog, exiting nonzero if any
// rule comes back with a counterexample or unexercised.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"prairie/internal/core"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
	"prairie/internal/rulecheck"
	"prairie/internal/volcano"
)

func main() {
	checkOnly := flag.Bool("check", false, "parse and type-check only")
	format := flag.Bool("fmt", false, "print canonical formatting")
	dump := flag.Bool("dump", false, "list generated Volcano rules")
	verify := flag.Bool("verify", false, "differentially verify every trans_rule; emit a JSON verdict table")
	timed := flag.Bool("time", false, "report per-phase wall time on stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: prairiec [-check] [-fmt] [-dump] [-verify] file.prairie")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	// phase wraps one compiler stage with optional wall-clock reporting.
	phase := func(name string, fn func()) {
		start := time.Now()
		fn()
		if *timed {
			fmt.Fprintf(os.Stderr, "prairiec: %-9s %v\n", name, time.Since(start).Round(time.Microsecond))
		}
	}

	if *format {
		var spec *prairielang.Spec
		phase("parse", func() { spec, err = prairielang.Parse(string(src)) })
		if err != nil {
			fatal(err)
		}
		fmt.Print(prairielang.Format(spec))
		return
	}
	var errs []error
	phase("check", func() { errs = prairielang.Check(string(src)) })
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "%s: %v\n", flag.Arg(0), e)
		}
		os.Exit(1)
	}
	if *checkOnly {
		fmt.Printf("%s: specification OK\n", flag.Arg(0))
		return
	}

	var spec *prairielang.Spec
	phase("parse", func() { spec, err = prairielang.Parse(string(src)) })
	if err != nil {
		fatal(err)
	}
	impls := stubHelpers(spec)
	if *verify {
		// Real implementations where the spec declares the example
		// helpers; the stubs stay for anything else.
		for name, fn := range rulecheck.DSLHelpers() {
			if _, ok := impls[name]; ok {
				impls[name] = fn
			}
		}
		var w *rulecheck.World
		phase("world", func() { w, err = rulecheck.DSLWorld(string(src), impls) })
		if err != nil {
			fatal(err)
		}
		var rep *rulecheck.Report
		phase("verify", func() { rep = rulecheck.Verify(w, rulecheck.Options{}) })
		js, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Print(js)
		if !rep.Ok() {
			os.Exit(1)
		}
		return
	}
	var rs *core.RuleSet
	phase("compile", func() { rs, err = prairielang.Compile(spec, impls) })
	if err != nil {
		fatal(err)
	}
	var vrs *volcano.RuleSet
	var rep *p2v.Report
	phase("translate", func() { vrs, rep, err = p2v.Translate(rs) })
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.String())
	if *dump {
		dumpRules(os.Stdout, rs, vrs, rep)
	}
}

// dumpRules lists the generated rules and, under each, what one firing
// of its compiled actions works in: the descriptor frame (slot order)
// and the sub-expressions evaluated once per firing and then shared. A
// trans_rule runs the cut P2V asked the compiler for, listed below its
// frame: the statements before the test, those deciding the identity of
// the new nodes, and those deferred until the memo keeps one.
func dumpRules(w io.Writer, rs *core.RuleSet, vrs *volcano.RuleSet, rep *p2v.Report) {
	frames := map[string]*core.Frame{}
	for _, r := range rs.IRules {
		frames[r.Name] = r.Frame
	}
	rule := func(kind, text string, f *core.Frame) {
		fmt.Fprintf(w, "  %s%s\n", kind, text)
		fmt.Fprintf(w, "      frame [%s]\n", strings.Join(f.Names, " "))
		for _, e := range f.Shared {
			fmt.Fprintf(w, "      shares %s\n", e)
		}
	}
	fmt.Fprintln(w, "\nGenerated Volcano rule set:")
	for _, r := range vrs.Trans {
		rule("trans_rule ", r.String(), r.Frame)
		for _, line := range rep.Cuts[r.Name] {
			fmt.Fprintf(w, "      %s\n", line)
		}
	}
	for _, r := range vrs.Impls {
		rule("impl_rule  ", r.String(), frames[r.Name])
	}
	for _, e := range vrs.Enforcers {
		rule("", e.String(), frames[e.Name])
	}
}

// stubHelpers binds every declared helper to a default-returning stub.
func stubHelpers(spec *prairielang.Spec) map[string]prairielang.HelperImpl {
	impls := make(map[string]prairielang.HelperImpl, len(spec.Helpers))
	for _, h := range spec.Helpers {
		kind := h.Result
		impls[h.Name] = func(args []core.Value) (core.Value, error) {
			return core.DefaultValue(kind), nil
		}
	}
	return impls
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prairiec:", err)
	os.Exit(1)
}
