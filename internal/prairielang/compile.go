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
// slice: its call site reuses the slice on every evaluation.
type HelperImpl func(args []core.Value) (core.Value, error)

// Compile parses nothing — it takes a parsed specification, checks it
// exactly as Check does, and builds an executable core.RuleSet whose rule
// actions are Go closures compiled from the specification's statement
// blocks (emit.go). impls supplies the Go bodies of the declared helper
// functions (every declared helper must be present); the emitted code
// calls them directly.
//
// Each rule carries what its readers read. A T-rule's statements are
// compiled when a back end asks for its cut (core.TRule.Slice, slice.go),
// and only then. An I-rule carries its pre-opt writes, the hints by which
// the P2V pre-processor classifies properties; P2V accepts only rule sets
// this compiler built.
func Compile(spec *Spec, impls map[string]HelperImpl) (*core.RuleSet, error) {
	c := check(spec)
	bound := make(map[string]HelperImpl, len(spec.Helpers))
	for _, h := range spec.Helpers {
		impl, ok := impls[h.Name]
		if !ok {
			c.errf(h.Pos, "helper %q has no Go implementation", h.Name)
			continue
		}
		bound[h.Name] = impl
	}
	for name := range impls {
		if c.helpers[name] == nil {
			c.errs = append(c.errs, fmt.Errorf("prairielang: implementation for undeclared helper %q", name))
		}
	}
	if len(c.errs) > 0 {
		return nil, errors.Join(c.errs...)
	}
	// The rules passed: emit their actions.
	rs := core.NewRuleSet(c.alg)
	for i, d := range spec.TRules {
		r := c.trules[i]
		names := r.sc.frame.Names
		rs.AddT(&core.TRule{
			Name:   d.Name,
			Origin: "spec:" + d.Pos.String(),
			LHS:    r.lhs,
			RHS:    r.rhs,
			Frame:  r.sc.frame,
			Slice: func(rhs *core.PatNode, idProps func(*core.Operation) []core.PropID) *core.Sliced {
				return cutTRule(d, rhs, idProps, names).emit(d.Test, names, bound)
			},
			Normalize: slices.ContainsFunc(spec.Normalize, func(n *RuleRef) bool { return n.Name == d.Name }),
			RootCopy: d.Test == nil && len(d.PreTest) == 0 && len(d.PostTest) == 1 &&
				d.PostTest[0].Prop == "" && d.PostTest[0].Dst == d.RHS.Desc && d.PostTest[0].Src == d.LHS.Desc,
		})
	}
	for i, d := range spec.IRules {
		r := c.irules[i]
		em := &emitter{helpers: bound, frame: r.sc.frame}
		var writes []core.PropWrite
		for _, st := range d.PreOpt {
			if st.Prop != "" {
				writes = append(writes, core.PropWrite{Desc: st.Dst, Prop: st.id})
			}
		}
		rs.AddI(&core.IRule{
			Name:      d.Name,
			LHS:       r.lhs,
			RHS:       r.rhs,
			Test:      em.test(d.Test),
			PreOpt:    em.action(d.PreOpt),
			PostOpt:   em.action(d.PostOpt),
			Frame:     r.sc.frame,
			PreWrites: writes,
		})
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
// implementations; it returns every problem found — what Compile reports
// for the same source, helper bindings apart.
func Check(src string) []error {
	spec, err := Parse(src)
	if err != nil {
		return []error{err}
	}
	return check(spec).errs
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
		merged.Normalize = append(merged.Normalize, spec.Normalize...)
	}
	return Compile(merged, impls)
}
