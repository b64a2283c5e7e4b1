package prairielang

import (
	"fmt"
	"testing"

	"prairie/internal/core"
)

// This file is the differential harness between the compiler (emit.go)
// and the interpreter it replaced (interp_test.go). Differential wraps
// every action of a compiled rule set so that each execution — by the
// search engine on a real memo, by a test on a hand-made binding — also
// runs the interpreter on a copy of the binding and compares the two
// outcomes: equal test results, equal panics, and afterwards the same
// names bound to descriptors that agree property for property.

// interpreted compiles src into a rule set whose actions interpret the
// checked statement blocks: Compile as it was before the compiler.
func interpreted(src string, impls map[string]HelperImpl) (*core.RuleSet, error) {
	spec, err := Parse(src)
	if err != nil {
		return nil, err
	}
	rs, err := Compile(spec, impls) // checks spec and resolves its ASTs
	if err != nil {
		return nil, err
	}
	h := rs.Helpers
	stmts := func(ss []*Stmt) core.Action {
		if len(ss) == 0 {
			return nil
		}
		return func(b *core.Binding) { execStmts(ss, b, h) }
	}
	test := func(e Expr) core.Test {
		if e == nil {
			return nil
		}
		return func(b *core.Binding) bool { return evalBool(e, b, h) }
	}
	for i, d := range spec.TRules {
		r := rs.TRules[i]
		r.PreTest, r.Test, r.PostTest = stmts(d.PreTest), test(d.Test), stmts(d.PostTest)
	}
	for i, d := range spec.IRules {
		r := rs.IRules[i]
		r.Test, r.PreOpt, r.PostOpt = test(d.Test), stmts(d.PreOpt), stmts(d.PostOpt)
	}
	return rs, nil
}

// MiniSpec and MiniImpls hand lang_test.go's specification to the
// external differential test.
var MiniSpec, MiniImpls = miniSpec, miniImpls

// Diff is a compiled rule set under differential test.
type Diff struct {
	t  testing.TB
	RS *core.RuleSet
	// Ran counts the compared executions per "rule/section".
	Ran map[string]int
}

// Differential wraps every action of rs, which was compiled from src
// with impls, to compare itself against the interpreter's execution of
// the same section.
func Differential(t testing.TB, rs *core.RuleSet, src string, impls map[string]HelperImpl) (*Diff, error) {
	oracle, err := interpreted(src, impls)
	if err != nil {
		return nil, err
	}
	d := &Diff{t: t, RS: rs, Ran: map[string]int{}}
	for i, r := range rs.TRules {
		o := oracle.TRules[i]
		r.PreTest = d.action(r.Name+"/pretest", r.PreTest, o.PreTest)
		r.Test = d.test(r.Name+"/test", r.Test, o.Test)
		r.PostTest = d.action(r.Name+"/posttest", r.PostTest, o.PostTest)
	}
	for i, r := range rs.IRules {
		o := oracle.IRules[i]
		r.Test = d.test(r.Name+"/test", r.Test, o.Test)
		r.PreOpt = d.action(r.Name+"/preopt", r.PreOpt, o.PreOpt)
		r.PostOpt = d.action(r.Name+"/postopt", r.PostOpt, o.PostOpt)
	}
	return d, nil
}

func (d *Diff) action(what string, compiled, oracle core.Action) core.Action {
	if compiled == nil {
		if oracle != nil {
			d.t.Errorf("%s: compiled to nothing", what)
		}
		return nil
	}
	return func(b *core.Binding) {
		d.compare(what, b,
			func(b *core.Binding) any { compiled(b); return nil },
			func(b *core.Binding) any { oracle(b); return nil })
	}
}

func (d *Diff) test(what string, compiled, oracle core.Test) core.Test {
	if compiled == nil {
		if oracle != nil {
			d.t.Errorf("%s: compiled to nothing", what)
		}
		return nil
	}
	return func(b *core.Binding) bool {
		return d.compare(what, b,
			func(b *core.Binding) any { return compiled(b) },
			func(b *core.Binding) any { return oracle(b) }).(bool)
	}
}

// compare runs the compiled section on b and the interpreter on a copy
// of b whose descriptors are clones, and checks they agree. A panic of
// both counts as agreement and is raised again.
func (d *Diff) compare(what string, b *core.Binding, compiled, oracle func(*core.Binding) any) any {
	d.Ran[what]++
	shadow := core.NewBinding(d.RS.Algebra.Props)
	for _, name := range b.Names() {
		shadow.Bind(name, b.D(name).Clone())
	}
	run := func(f func(*core.Binding) any, b *core.Binding) (out any, panicked any) {
		defer func() { panicked = recover() }()
		return f(b), nil
	}
	want, wantPanic := run(oracle, shadow)
	got, gotPanic := run(compiled, b)
	if (gotPanic == nil) != (wantPanic == nil) {
		d.t.Errorf("%s: compiled panic %v, interpreter panic %v", what, gotPanic, wantPanic)
	}
	if gotPanic != nil {
		panic(gotPanic)
	}
	if got != want {
		d.t.Errorf("%s: compiled yields %v, interpreter %v", what, got, want)
	}
	if g, w := fmt.Sprint(b.Names()), fmt.Sprint(shadow.Names()); g != w {
		d.t.Errorf("%s: compiled binds %s, interpreter %s", what, g, w)
		return got
	}
	for _, name := range b.Names() {
		if diff := descDiff(b.D(name), shadow.D(name)); diff != "" {
			d.t.Errorf("%s: %s differs: %s", what, name, diff)
		}
	}
	return got
}

// descDiff compares two descriptors property for property; set and
// unset are told apart.
func descDiff(got, want *core.Descriptor) string {
	ps := got.Props()
	for i := 0; i < ps.Len(); i++ {
		id := core.PropID(i)
		if got.Has(id) != want.Has(id) || !got.Get(id).Equal(want.Get(id)) {
			return fmt.Sprintf("%s: compiled %v (set %v), interpreter %v (set %v)",
				ps.At(id).Name, got.Get(id), got.Has(id), want.Get(id), want.Has(id))
		}
	}
	return ""
}

// RunOnDefaults executes every section of every rule once on a binding
// of empty descriptors, so rules no search reaches (P2V merges some
// away) are compared at least on default values. A section that panics
// — compare has checked that the interpreter panics too — ends its rule.
func (d *Diff) RunOnDefaults() {
	run := func(lhs *core.PatNode, sections func(b *core.Binding)) {
		defer func() { _ = recover() }()
		b := core.NewBinding(d.RS.Algebra.Props)
		for _, name := range lhs.DescNames() {
			b.D(name)
		}
		sections(b)
	}
	for _, r := range d.RS.TRules {
		run(r.LHS, func(b *core.Binding) {
			r.RunCond(b)
			r.RunPost(b)
		})
	}
	for _, r := range d.RS.IRules {
		run(r.LHS, func(b *core.Binding) {
			r.RunTest(b)
			if r.PreOpt != nil {
				r.PreOpt(b)
			}
			if r.PostOpt != nil {
				r.PostOpt(b)
			}
		})
	}
}
