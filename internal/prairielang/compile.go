package prairielang

import (
	"errors"
	"fmt"
	"slices"

	"prairie/internal/core"
)

// HelperImpl is the Go implementation of a declared helper function. It
// must be a pure function of its arguments (and of state fixed before
// compilation, such as a catalog) and must not retain the argument
// slice: a firing evaluates equal calls once and reuses the slice.
type HelperImpl func(args []core.Value) (core.Value, error)

// Compile parses nothing — it takes a parsed specification, checks it,
// and builds an executable core.RuleSet whose rule actions are Go
// closures compiled from the specification's statement blocks (emit.go).
// impls supplies the Go bodies of the declared helper functions (every
// declared helper must be present).
//
// The compiler attaches exact write hints (core.ActionHints) to every
// rule, computed statically from the statement blocks: the P2V
// pre-processor classifies properties by them, and accepts only rule sets
// this compiler built.
func Compile(spec *Spec, impls map[string]HelperImpl) (*core.RuleSet, error) {
	c := newChecker(spec)
	c.declare()

	rs := core.NewRuleSet(c.alg)
	for _, h := range c.spec.Helpers {
		impl, ok := impls[h.Name]
		if !ok {
			c.errf(h.Pos, "helper %q has no Go implementation", h.Name)
			continue
		}
		rs.Helpers.Define(h.Name, h.Params, h.Result, impl)
	}
	for name := range impls {
		if c.helpers[name] == nil {
			c.errs = append(c.errs, fmt.Errorf("prairielang: implementation for undeclared helper %q", name))
		}
	}

	for _, d := range spec.TRules {
		rs.AddT(c.compileTRule(d, rs.Helpers))
	}
	for _, d := range spec.IRules {
		rs.AddI(c.compileIRule(d, rs.Helpers))
	}
	if len(c.errs) > 0 {
		return nil, errors.Join(c.errs...)
	}
	if errs := rs.Validate(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return rs, nil
}

// ParseAndCompile is the convenience entry point: source to rule set.
func ParseAndCompile(src string, impls map[string]HelperImpl) (*core.RuleSet, error) {
	spec, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(spec, impls)
}

// Check parses and checks a specification without requiring helper
// implementations; it returns every problem found. Used by prairiec's
// -check mode.
func Check(src string) []error {
	spec, err := Parse(src)
	if err != nil {
		return []error{err}
	}
	c := newChecker(spec)
	c.declare()
	for _, d := range spec.TRules {
		c.checkTRule(d)
	}
	for _, d := range spec.IRules {
		c.checkIRule(d)
	}
	return c.errs
}

func (c *checker) checkTRule(d *TRuleDecl) (lhs, rhs *core.PatNode, sc ruleScope, pre, post []string) {
	lhs = c.resolvePattern(d.LHS)
	rhs = c.resolvePattern(d.RHS)
	sc = scopeOf(lhs, rhs, true)
	pre = c.checkStmts(d.PreTest, sc)
	if d.Test != nil {
		if got := c.checkExpr(d.Test, sc, core.KindBool); !kindsCompatible(got, core.KindBool) {
			c.errf(d.Test.ExprPos(), "rule %s: test must be boolean, got %v", d.Name, got)
		}
	}
	post = c.checkStmts(d.PostTest, sc)
	return
}

func (c *checker) checkIRule(d *IRuleDecl) (lhs, rhs *core.PatNode, sc ruleScope, pre, post []string) {
	lhs = c.resolvePattern(d.LHS)
	rhs = c.resolvePattern(d.RHS)
	sc = scopeOf(lhs, rhs, false)
	if d.Test != nil {
		if got := c.checkExpr(d.Test, sc, core.KindBool); !kindsCompatible(got, core.KindBool) {
			c.errf(d.Test.ExprPos(), "rule %s: test must be boolean, got %v", d.Name, got)
		}
	}
	pre = c.checkStmts(d.PreOpt, sc)
	post = c.checkStmts(d.PostOpt, sc)
	// The post-opt section computes the algorithm's cost (§2.4); the
	// search compares alternatives by nothing else.
	if costs := c.alg.Props.CostProps(); len(costs) == 1 && rhs.Desc != "" {
		cost := c.alg.Props.At(costs[0]).Name
		if !slices.ContainsFunc(d.PostOpt, func(st *Stmt) bool { return st.Dst == rhs.Desc && st.Prop == cost }) {
			c.errf(d.Pos, "rule %s: post-opt must assign %s.%s, the cost of its algorithm", d.Name, rhs.Desc, cost)
		}
	}
	return
}

// compileTRule checks a T-rule and, unless the specification has shown
// an error so far (Compile fails then), emits its actions.
func (c *checker) compileTRule(d *TRuleDecl, helpers *core.Helpers) *core.TRule {
	lhs, rhs, sc, preW, postW := c.checkTRule(d)
	r := &core.TRule{
		Name:   d.Name,
		Origin: "spec:" + d.Pos.String(),
		LHS:    lhs,
		RHS:    rhs,
		Hints:  &core.ActionHints{PreWrites: preW, PostWrites: postW},
		Frame:  sc.frame,
	}
	if len(c.errs) == 0 {
		em := &emitter{helpers: helpers, frame: sc.frame, shared: shareCalls(sc.frame, d.PreTest, d.Test, d.PostTest)}
		r.PreTest, r.Test, r.PostTest = em.action(d.PreTest), em.test(d.Test), em.action(d.PostTest)
		r.Slice = func(rhs *core.PatNode, idProps func(*core.Operation) []core.PropID) *core.Sliced {
			return cutTRule(d, rhs, idProps).emit(d.Test, sc.frame.Names, helpers)
		}
	}
	return r
}

func (c *checker) compileIRule(d *IRuleDecl, helpers *core.Helpers) *core.IRule {
	lhs, rhs, sc, preW, postW := c.checkIRule(d)
	r := &core.IRule{
		Name:  d.Name,
		LHS:   lhs,
		RHS:   rhs,
		Hints: &core.ActionHints{PreWrites: preW, PostWrites: postW},
		Frame: sc.frame,
	}
	if len(c.errs) == 0 {
		em := &emitter{helpers: helpers, frame: sc.frame}
		r.Test, r.PreOpt, r.PostOpt = em.test(d.Test), em.action(d.PreOpt), em.action(d.PostOpt)
	}
	return r
}

// ParseAndCompileAll compiles several specification sources as one rule
// set — the modular composition of the paper's conclusion. The first
// source typically declares the algebra; later modules contribute
// additional operations, helpers, and rules (they reference earlier
// declarations by name and must not re-declare them). Algebra names, when
// given, must agree. Positions from the second module on carry their
// module's number, in error messages and rule origins alike.
func ParseAndCompileAll(srcs []string, impls map[string]HelperImpl) (*core.RuleSet, error) {
	if len(srcs) == 0 {
		return nil, errors.New("prairielang: no sources")
	}
	merged := &Spec{}
	for i, src := range srcs {
		spec, err := parse(src, i+1)
		if err != nil {
			return nil, fmt.Errorf("prairielang: module %d: %w", i+1, err)
		}
		switch {
		case merged.Name == "":
			merged.Name = spec.Name
		case spec.Name != "" && spec.Name != merged.Name:
			return nil, fmt.Errorf("prairielang: module %d declares algebra %q, want %q",
				i+1, spec.Name, merged.Name)
		}
		merged.Props = append(merged.Props, spec.Props...)
		merged.Ops = append(merged.Ops, spec.Ops...)
		merged.Helpers = append(merged.Helpers, spec.Helpers...)
		merged.TRules = append(merged.TRules, spec.TRules...)
		merged.IRules = append(merged.IRules, spec.IRules...)
	}
	return Compile(merged, impls)
}
