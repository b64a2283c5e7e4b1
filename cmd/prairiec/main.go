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
//	-check   run every check a compile runs, without helper bodies
//	-fmt     print the canonical formatting of the specification
//	-dump    also list the generated trans_rules/impl_rules/enforcers, each
//	         with its descriptor frame; a trans_rule also with the cut of
//	         its statements — which run before the test, which decide the
//	         new nodes' identity, which are deferred until the memo keeps
//	         a node, which root properties a firing that keeps the root
//	         alone inherits from its group — or the reason it was left
//	         whole; and whether it normalizes the query or is an
//	         involution
//	-verify  differentially verify every trans_rule (JSON verdict table)
//	-time    report per-phase wall time (parse, compile, translate)
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
	"prairie/internal/server"
	"prairie/internal/volcano"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prairiec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checkOnly := fs.Bool("check", false, "run every check a compile runs, without helper bodies")
	format := fs.Bool("fmt", false, "print canonical formatting")
	dump := fs.Bool("dump", false, "list generated Volcano rules")
	verify := fs.Bool("verify", false, "differentially verify every trans_rule; emit a JSON verdict table")
	timed := fs.Bool("time", false, "report per-phase wall time on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: prairiec [-check] [-fmt] [-dump] [-verify] [-time] file.prairie")
		return 2
	}
	file := fs.Arg(0)
	// Every error is reported against the file, a specification's one
	// error to a line, at its position.
	fail := func(err error) int {
		for _, line := range strings.Split(err.Error(), "\n") {
			fmt.Fprintf(stderr, "%s: %s\n", file, line)
		}
		return 1
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return fail(err)
	}

	// phase wraps one compiler stage with optional wall-clock reporting.
	phase := func(name string, fn func()) {
		start := time.Now()
		fn()
		if *timed {
			fmt.Fprintf(stderr, "prairiec: %-9s %v\n", name, time.Since(start).Round(time.Microsecond))
		}
	}
	var spec *prairielang.Spec
	phase("parse", func() { spec, err = prairielang.Parse(string(src)) })
	if err != nil {
		return fail(err)
	}
	if *format {
		fmt.Fprint(stdout, prairielang.Format(spec))
		return 0
	}
	impls := stubHelpers(spec)
	if *verify {
		// Real implementations where the spec declares the example
		// helpers; the stubs stay for anything else.
		for name, fn := range server.DSLHelpers() {
			if _, ok := impls[name]; ok {
				impls[name] = fn
			}
		}
	}
	var rs *core.RuleSet
	phase("compile", func() { rs, err = prairielang.Compile(spec, impls) })
	if err != nil {
		return fail(err)
	}
	if *checkOnly {
		fmt.Fprintf(stdout, "%s: specification OK\n", file)
		return 0
	}
	if *verify {
		var w *rulecheck.World
		phase("world", func() { w, err = rulecheck.DSLWorld(rs) })
		if err != nil {
			return fail(err)
		}
		var rep *rulecheck.Report
		phase("verify", func() { rep = rulecheck.Verify(w) })
		js, err := rep.JSON()
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, js)
		if !rep.Ok() {
			return 1
		}
		return 0
	}
	var vrs *volcano.RuleSet
	var rep *p2v.Report
	phase("translate", func() { vrs, rep, err = p2v.Translate(rs) })
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, rep.String())
	if *dump {
		dumpRules(stdout, rs, vrs, rep)
	}
	return 0
}

// dumpRules lists the generated rules and, under each, the descriptor
// frame (slot order) one firing of its compiled actions works in. A
// trans_rule runs the cut P2V asked the compiler for, listed below its
// frame: the pre-test statements, which run before the test as written,
// the post-test statements deciding the identity of the new nodes, and
// those deferred until the memo keeps one. The root properties deferred
// statements assign follow as inherited: a firing whose only new node is
// the root takes them from its group instead.
// Then the right-side nodes that keep the identity of a left-side node
// of their operator ("keeps: D6 <- D3"): when every node does, a firing
// first looks its right side up in the memo and, finding it there, runs
// no action. Last come a rule's flags: declared normalizing, derived an
// involution.
func dumpRules(w io.Writer, rs *core.RuleSet, vrs *volcano.RuleSet, rep *p2v.Report) {
	frames := map[string]*core.Frame{}
	for _, r := range rs.IRules {
		frames[r.Name] = r.Frame
	}
	rule := func(kind, text string, f *core.Frame) {
		fmt.Fprintf(w, "  %s%s\n", kind, text)
		fmt.Fprintf(w, "      frame [%s]\n", strings.Join(f.Names, " "))
	}
	fmt.Fprintln(w, "\nGenerated Volcano rule set:")
	props := vrs.Algebra.Props
	for _, r := range vrs.Trans {
		rule("trans_rule ", r.String(), r.Frame)
		for _, line := range rep.Cuts[r.Name] {
			fmt.Fprintf(w, "      %s\n", line)
		}
		for _, id := range r.RestRoot {
			fmt.Fprintf(w, "      inherited %s.%s\n", r.RHS.Desc, props.At(id).Name)
		}
		if len(r.Keeps) > 0 {
			keeps := make([]string, len(r.Keeps))
			for i, k := range r.Keeps {
				keeps[i] = k.RHS + " <- " + k.LHS
			}
			fmt.Fprintf(w, "      keeps: %s\n", strings.Join(keeps, ", "))
		}
		if r.Normalize {
			fmt.Fprintln(w, "      normalize: rewrites the query before the search, which never explores it")
		}
		if r.Involution {
			fmt.Fprintln(w, "      involution: its own inverse, never fired on an expression it built")
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
