package p2v

import (
	"errors"
	"fmt"
	"slices"

	"prairie/internal/core"
	"prairie/internal/volcano"
)

// Translate maps a rule set prairielang compiled, and so checked, into a
// Volcano rule set, performing enforcer deduction, automatic property
// classification, and rule rewriting/merging (Section 3 of the paper).
// The returned Report documents every decision the pre-processor took.
func Translate(rs *core.RuleSet) (*volcano.RuleSet, *Report, error) {
	if err := compiled(rs); err != nil {
		return nil, nil, err
	}
	rep := newReport(rs)
	ps := rs.Algebra.Props

	// --- Property classification (§3.1). --------------------------------
	costID, phys := classify(rs) // the checker found one cost property
	rep.setClassification(ps, costID, phys)

	// --- Enforcer deduction (§2.5, §3.1). --------------------------------
	enfOps := map[*core.Operation][]core.PropID{} // operator -> enforced properties
	for _, r := range rs.IRules {
		if !r.IsNullRule() {
			continue
		}
		// The Null rule's pre-opt copies the operator's controlled
		// properties onto the input stream's descriptor (Figure 7);
		// those are the properties the operator's algorithms enforce.
		props := inputWrites(r, costID)
		enfOps[r.Op()] = props
		rep.addEnforcerOp(r.Op(), ps, props)
	}

	// --- T-rule rewriting: delete enforcer-operator nodes. ---------------
	type rewritten struct {
		rule     *core.TRule
		lhs, rhs *core.PatNode
		changed  bool
	}
	var trules []rewritten
	isEnf := func(op *core.Operation) bool { _, ok := enfOps[op]; return ok }
	for _, r := range rs.TRules {
		lhs := deleteEnforcerNodes(r.LHS, isEnf)
		rhs := deleteEnforcerNodes(r.RHS, isEnf)
		changed := lhs != r.LHS || rhs != r.RHS
		if changed {
			rep.RewrittenTRules = append(rep.RewrittenTRules, r.Name)
		}
		if lhs.IsVar() {
			rep.dropT(r.Name, "left side reduced to a variable after enforcer-operator deletion")
			continue
		}
		trules = append(trules, rewritten{r, lhs, rhs, changed})
	}

	// --- Alias detection: idempotent rules (§3.3). -----------------------
	// Only rules the translation itself rewrote are candidates: a rule
	// whose sides were already structurally identical (e.g. a commute of
	// descriptor content) is a real transformation, not an idempotence.
	alias := map[*core.Operation]*core.Operation{}
	var kept []rewritten
	for _, t := range trules {
		if !t.changed {
			kept = append(kept, t)
			continue
		}
		same, rootsDiffer := shapeEqualModuloRoot(t.lhs, t.rhs)
		if !same {
			kept = append(kept, t)
			continue
		}
		if !rootsDiffer {
			rep.dropT(t.rule.Name, "became a no-op after enforcer-operator deletion")
			continue
		}
		from, to := t.rhs.Op, t.lhs.Op
		if from.Arity != to.Arity {
			kept = append(kept, t)
			continue
		}
		if prev, ok := alias[from]; ok && prev != to {
			return nil, nil, fmt.Errorf("p2v: operator %s aliased to both %s and %s",
				from.Name, prev.Name, to.Name)
		}
		alias[from] = to
		rep.addAlias(from, to)
		rep.dropT(t.rule.Name, fmt.Sprintf("idempotent mapping %s => %s; alias substituted", to.Name, from.Name))
	}
	resolveAliases(alias)

	// --- Emit the Volcano rule set. ---------------------------------------
	out := volcano.NewRuleSet(rs.Algebra)
	out.SetPhys(phys...)

	for _, t := range kept {
		lhs := substAliases(t.lhs, alias)
		rhs := substAliases(t.rhs, alias)
		if lhs != t.lhs || rhs != t.rhs {
			if ok, diff := shapeEqualModuloRoot(lhs, rhs); ok && !diff {
				rep.dropT(t.rule.Name, "became a no-op after alias substitution")
				continue
			}
		}
		// The rule is cut for the memo: its test first, then what decides
		// the identity of the nodes this right side builds, and the rest
		// only for a firing whose result the memo keeps.
		rule := t.rule
		s := rule.Slice(rhs, out.IDProps)
		rep.Cuts[rule.Name] = s.Doc
		out.AddTrans(&volcano.TransRule{
			Name:     rule.Name,
			Origin:   rule.Origin,
			LHS:      lhs,
			RHS:      rhs,
			Frame:    s.Frame,
			Cond:     s.Cond,
			Appl:     s.Appl,
			Rest:     s.Rest,
			RestRoot: s.RestRoot,
			// A normalizing rule keeps its declaration; whether a rule is
			// its own inverse the translation derives.
			Normalize:  rule.Normalize,
			Involution: involution(rule, lhs, rhs),
		})
	}

	for _, r := range rs.IRules {
		if r.IsNullRule() {
			rep.dropI(r.Name, "Null implementation; operator is an enforcer-operator")
			continue
		}
		if props, ok := enfOps[r.Op()]; ok {
			out.AddEnforcer(makeEnforcer(rs, r, props))
			rep.EnforcerIRules = append(rep.EnforcerIRules, r.Name)
			continue
		}
		out.AddImpl(makeImpl(r, alias))
	}

	rep.finish(rs, out)
	if errs := out.Validate(); len(errs) > 0 {
		msgs := append([]error{errors.New("p2v: generated Volcano rule set invalid")}, errs...)
		return nil, nil, errors.Join(msgs...)
	}
	return out, rep, nil
}

// involution reports whether a trans_rule, over the given sides, is its
// own inverse: both sides one operator over variables, the right side
// the left side's operator over the left side's variables permuted by
// an involution, and a firing that does nothing but copy the left root's
// descriptor into the right root's (core.TRule.RootCopy). Applied to its
// own result, such a rule rebuilds the expression it was applied to.
func involution(r *core.TRule, lhs, rhs *core.PatNode) bool {
	if !r.RootCopy || lhs.Depth() != 1 || rhs.Depth() != 1 || lhs.Op != rhs.Op {
		return false
	}
	// perm[i] is the left-side position of the variable at right-side
	// position i.
	perm := make([]int, len(rhs.Kids))
	for i, k := range rhs.Kids {
		perm[i] = slices.IndexFunc(lhs.Kids, func(l *core.PatNode) bool { return l.Var == k.Var })
		if perm[i] < 0 {
			return false
		}
	}
	for i, j := range perm {
		if perm[j] != i {
			return false
		}
	}
	return true
}

// compiled rejects a rule set with rules the Prairie-language compiler did
// not build: a T-rule needs the compiler's frame and slice, an I-rule its
// frame.
func compiled(rs *core.RuleSet) error {
	var errs []error
	for _, r := range rs.TRules {
		if r.Frame == nil || r.Slice == nil {
			errs = append(errs, fmt.Errorf("p2v: T-rule %s was not compiled from a Prairie specification (no frame or slice)", r.Name))
		}
	}
	for _, r := range rs.IRules {
		if r.Frame == nil {
			errs = append(errs, fmt.Errorf("p2v: I-rule %s was not compiled from a Prairie specification (no frame)", r.Name))
		}
	}
	return errors.Join(errs...)
}

// deleteEnforcerNodes removes enforcer-operator nodes from a pattern,
// splicing each node's single input in its place. When the input is a
// bare variable, the deleted node's descriptor name moves to it so the
// rule's required-property assignments keep a target. Rewritten nodes
// keep their slots: the rule's actions were compiled against its frame.
func deleteEnforcerNodes(p *core.PatNode, isEnf func(*core.Operation) bool) *core.PatNode {
	if p.IsVar() {
		return p
	}
	kids := make([]*core.PatNode, len(p.Kids))
	changed := false
	for i, k := range p.Kids {
		kids[i] = deleteEnforcerNodes(k, isEnf)
		changed = changed || kids[i] != k
	}
	if isEnf(p.Op) && p.Op.Arity == 1 {
		child := kids[0]
		if child.IsVar() && child.Desc == "" && p.Desc != "" {
			child = &core.PatNode{Var: child.Var, Desc: p.Desc, Slot: p.Slot}
		}
		return child
	}
	if !changed {
		return p
	}
	return &core.PatNode{Op: p.Op, Desc: p.Desc, Kids: kids, Slot: p.Slot}
}

// shapeEqualModuloRoot reports whether two patterns are structurally
// identical (same operators and variables, descriptor names ignored)
// except possibly for the root operator, and whether the root operators
// differ.
func shapeEqualModuloRoot(a, b *core.PatNode) (same, rootsDiffer bool) {
	if a.IsVar() || b.IsVar() {
		return a.IsVar() && b.IsVar() && a.Var == b.Var, false
	}
	if len(a.Kids) != len(b.Kids) {
		return false, false
	}
	for i := range a.Kids {
		if !patEqualStrict(a.Kids[i], b.Kids[i]) {
			return false, false
		}
	}
	return true, a.Op != b.Op
}

func patEqualStrict(a, b *core.PatNode) bool {
	if a.IsVar() || b.IsVar() {
		return a.IsVar() && b.IsVar() && a.Var == b.Var
	}
	if a.Op != b.Op || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !patEqualStrict(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

// resolveAliases collapses alias chains (A->B, B->C becomes A->C).
func resolveAliases(alias map[*core.Operation]*core.Operation) {
	for from := range alias {
		to := alias[from]
		for {
			next, ok := alias[to]
			if !ok {
				break
			}
			to = next
		}
		alias[from] = to
	}
}

// substAliases rewrites aliased operators in a pattern.
func substAliases(p *core.PatNode, alias map[*core.Operation]*core.Operation) *core.PatNode {
	if len(alias) == 0 || p.IsVar() {
		return p
	}
	kids := make([]*core.PatNode, len(p.Kids))
	changed := false
	for i, k := range p.Kids {
		kids[i] = substAliases(k, alias)
		changed = changed || kids[i] != k
	}
	op := p.Op
	if to, ok := alias[op]; ok {
		op = to
		changed = true
	}
	if !changed {
		return p
	}
	return &core.PatNode{Op: op, Desc: p.Desc, Kids: kids, Slot: p.Slot}
}
