package prairielang

import (
	"errors"
	"fmt"
	"testing"

	"prairie/internal/core"
)

// This file is the differential harness between the compiler (emit.go,
// slice.go) and the interpreter it replaced (interp_test.go). Differential
// wraps every action of a compiled rule set so that each execution — by
// the search engine on a real memo, by a test on a hand-made binding —
// also runs the interpreter on a copy of the binding and compares the two
// outcomes: equal test results, equal panics, and afterwards the same
// names bound to descriptors that agree property for property. An I-rule
// is compared section by section. A T-rule is compiled only as its cut,
// which runs the statements in another order than the interpreter's rule
// as written, so it is compared where that order must not show
// (Diff.sliced).

// interpreted parses and checks src, resolving the ASTs the interpreter
// runs.
func interpreted(src string) (*Spec, error) {
	spec, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if errs := check(spec).errs; len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return spec, nil
}

// MiniSpec and MiniImpls hand lang_test.go's specification to the
// external differential test.
var MiniSpec, MiniImpls = miniSpec, miniImpls

// Diff is a compiled rule set under differential test.
type Diff struct {
	t     testing.TB
	RS    *core.RuleSet
	impls map[string]HelperImpl
	// Ran counts the compared executions per "rule/section": an I-rule's
	// test, preopt and postopt, a T-rule's cond, appl and rest. A section
	// compiled but never run counts 0.
	Ran map[string]int
	// Want is the binding the interpreter left the latest firing of a
	// sliced T-rule in — its final descriptors — or nil if it panicked.
	Want *core.Binding
}

// Differential wraps every action of rs, which was compiled from src
// with impls, to compare itself against the interpreter's execution of
// the same rule.
func Differential(t testing.TB, rs *core.RuleSet, src string, impls map[string]HelperImpl) (*Diff, error) {
	spec, err := interpreted(src)
	if err != nil {
		return nil, err
	}
	d := &Diff{t: t, RS: rs, impls: impls, Ran: map[string]int{}}
	for i, r := range rs.TRules {
		d.sliced(r, spec.TRules[i])
	}
	stmts := func(ss []*Stmt) core.Action {
		if len(ss) == 0 {
			return nil
		}
		return func(b *core.Binding) { execStmts(ss, b, impls) }
	}
	for i, r := range rs.IRules {
		o := spec.IRules[i]
		var test core.Test
		if o.Test != nil {
			test = func(b *core.Binding) bool { return evalBool(o.Test, b, impls) }
		}
		r.Test = d.test(r.Name+"/test", r.Test, test)
		r.PreOpt = d.action(r.Name+"/preopt", r.PreOpt, stmts(o.PreOpt))
		r.PostOpt = d.action(r.Name+"/postopt", r.PostOpt, stmts(o.PostOpt))
	}
	return d, nil
}

// compiled records a compiled section, not yet compared.
func (d *Diff) compiled(what string) {
	if _, ok := d.Ran[what]; !ok {
		d.Ran[what] = 0
	}
}

func (d *Diff) action(what string, compiled, oracle core.Action) core.Action {
	if compiled == nil {
		if oracle != nil {
			d.t.Errorf("%s: compiled to nothing", what)
		}
		return nil
	}
	d.compiled(what)
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
	d.compiled(what)
	return func(b *core.Binding) bool {
		return d.compare(what, b,
			func(b *core.Binding) any { return compiled(b) },
			func(b *core.Binding) any { return oracle(b) }).(bool)
	}
}

// sliced wraps r.Slice so that the cut rule it hands a back end compares
// itself against the interpreter's rule o as written at the three points
// where the order of the statements must not show: after Cond the verdict
// is the interpreter's; after Appl the identity properties of every
// right-side node already hold the values the interpreter ends with;
// after Rest — after Appl, for a rule with nothing deferred — every
// descriptor equals the interpreter's, property by property. A firing
// the interpreter panics in is not compared; a panic of the compiled
// parts alone is an error.
func (d *Diff) sliced(r *core.TRule, o *TRuleDecl) {
	slice := r.Slice
	r.Slice = func(rhs *core.PatNode, idProps func(*core.Operation) []core.PropID) *core.Sliced {
		s := slice(rhs, idProps)
		d.compiled(r.Name + "/cond")
		identity := map[string][]core.PropID{} // of the right side's nodes
		var walk func(n *core.PatNode)
		walk = func(n *core.PatNode) {
			if !n.IsVar() && n.Desc != "" {
				identity[n.Desc] = idProps(n.Op)
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(rhs)
		// want is the binding the interpreter left the current firing in,
		// nil when it panicked.
		var want *core.Binding
		guard := func(what string) {
			d.Ran[r.Name+what]++
			if p := recover(); p != nil {
				if want != nil {
					d.t.Errorf("%s%s: compiled panic %v, none in the interpreter", r.Name, what, p)
				}
				panic(p)
			}
		}
		cond, appl, rest := s.Cond, s.Appl, s.Rest
		s.Cond = func(b *core.Binding) bool {
			want = d.shadow(b)
			// The interpreter runs the post-test statements whatever the
			// verdict: RunOnDefaults runs every part of a rejected rule too.
			ok, panicked := run(func(b *core.Binding) any {
				return RunWhole(o, d.impls, b)
			}, want)
			if panicked != nil {
				want = nil
			}
			d.Want = want
			defer guard("/cond")
			got := cond == nil || cond(b)
			if want != nil && got != ok {
				d.t.Errorf("%s/cond: compiled yields %v, interpreter %v", r.Name, got, ok)
			}
			return got
		}
		if appl != nil {
			d.compiled(r.Name + "/appl")
			s.Appl = func(b *core.Binding) {
				defer guard("/appl")
				if appl(b); want == nil {
					return
				} else if rest == nil {
					d.same(r.Name+"/appl", b, want)
					return
				}
				for name, ids := range identity {
					if !want.Bound(name) {
						continue
					}
					// A node whose statements are all deferred does not
					// exist yet: the memo would find it empty.
					got, w := core.NewDescriptor(d.RS.Algebra.Props), want.D(name)
					if b.Bound(name) {
						got = b.D(name)
					}
					for _, id := range ids {
						if got.Has(id) != w.Has(id) || !got.Get(id).Equal(w.Get(id)) {
							d.t.Errorf("%s/appl: identity property %s.%s is %v (set %v), the interpreter ends with %v (set %v)",
								r.Name, name, got.Props().At(id).Name, got.Get(id), got.Has(id), w.Get(id), w.Has(id))
						}
					}
				}
			}
		}
		if rest != nil {
			d.compiled(r.Name + "/rest")
			s.Rest = func(b *core.Binding) {
				defer guard("/rest")
				if rest(b); want != nil {
					d.same(r.Name+"/rest", b, want)
				}
			}
		}
		return s
	}
}

// shadow returns a copy of b whose descriptors are clones.
func (d *Diff) shadow(b *core.Binding) *core.Binding {
	shadow := core.NewBinding(d.RS.Algebra.Props)
	for _, name := range b.Names() {
		shadow.Bind(name, b.D(name).Clone())
	}
	return shadow
}

// run calls f on b and returns its result, or what it panicked with.
func run(f func(*core.Binding) any, b *core.Binding) (out any, panicked any) {
	defer func() { panicked = recover() }()
	return f(b), nil
}

// compare runs the compiled section on b and the interpreter on a copy
// of b whose descriptors are clones, and checks they agree. A panic of
// both counts as agreement and is raised again.
func (d *Diff) compare(what string, b *core.Binding, compiled, oracle func(*core.Binding) any) any {
	d.Ran[what]++
	shadow := d.shadow(b)
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
	d.same(what, b, shadow)
	return got
}

// same checks that the compiled code's binding and the interpreter's
// bind the same names to descriptors that agree property for property.
func (d *Diff) same(what string, got, want *core.Binding) {
	if g, w := fmt.Sprint(got.Names()), fmt.Sprint(want.Names()); g != w {
		d.t.Errorf("%s: compiled binds %s, interpreter %s", what, g, w)
		return
	}
	for _, name := range got.Names() {
		if diff := descDiff(got.D(name), want.D(name)); diff != "" {
			d.t.Errorf("%s: %s differs: %s", what, name, diff)
		}
	}
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
// away) are compared at least on default values — a T-rule cut for its
// own right side, the declared args(...) of an operation standing for
// its identity properties. A section that panics — the comparison has
// checked that the interpreter panics too — ends its rule.
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
		s := r.Slice(r.RHS, func(op *core.Operation) []core.PropID { return op.Args })
		run(r.LHS, func(b *core.Binding) {
			s.Cond(b)
			if s.Appl != nil {
				s.Appl(b)
			}
			if s.Rest != nil {
				s.Rest(b)
			}
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
