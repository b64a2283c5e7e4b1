package p2v

import (
	"fmt"
	"sort"
	"strings"

	"prairie/internal/core"
	"prairie/internal/volcano"
)

// Report documents a translation: the deduced enforcers, the automatic
// property classification, every rewritten/dropped/merged rule, and the
// rule-count arithmetic of §3.3 of the paper.
type Report struct {
	Algebra string

	// Property classification (§3.1).
	CostProp  string
	PhysProps []string
	ArgProps  []string

	// Enforcer deduction (§2.5).
	EnforcerOperators  []string            // operators with a Null implementation
	EnforcedProps      map[string][]string // operator -> enforced properties
	EnforcerAlgorithms []string            // their non-Null algorithms

	// Rule rewriting and merging (§3.3).
	RewrittenTRules []string          // T-rules with enforcer-operator nodes deleted
	DroppedTRules   map[string]string // T-rule -> reason
	DroppedIRules   map[string]string // I-rule -> reason
	EnforcerIRules  []string          // I-rules that became Volcano enforcers
	Aliases         map[string]string // introduced operator -> canonical operator
	// Cuts lists, per trans_rule compiled from Prairie-language text, how
	// its statements were cut for the memo (core.Sliced.Doc).
	Cuts map[string][]string

	// Rule-count arithmetic: Prairie in, Volcano out.
	TRulesIn, IRulesIn               int
	TransOut, ImplsOut, EnforcersOut int
}

func newReport(rs *core.RuleSet) *Report {
	return &Report{
		Algebra:       rs.Algebra.Name,
		EnforcedProps: map[string][]string{},
		DroppedTRules: map[string]string{},
		DroppedIRules: map[string]string{},
		Aliases:       map[string]string{},
		Cuts:          map[string][]string{},
	}
}

func (rep *Report) setClassification(ps *core.PropertySet, cost core.PropID, phys []core.PropID) {
	rep.CostProp = ps.At(cost).Name
	isPhys := map[core.PropID]bool{}
	for _, id := range phys {
		isPhys[id] = true
		rep.PhysProps = append(rep.PhysProps, ps.At(id).Name)
	}
	for i := 0; i < ps.Len(); i++ {
		id := core.PropID(i)
		if id != cost && !isPhys[id] {
			rep.ArgProps = append(rep.ArgProps, ps.At(id).Name)
		}
	}
	sort.Strings(rep.PhysProps)
	sort.Strings(rep.ArgProps)
}

func (rep *Report) addEnforcerOp(op *core.Operation, ps *core.PropertySet, props []core.PropID) {
	rep.EnforcerOperators = append(rep.EnforcerOperators, op.Name)
	for _, id := range props {
		rep.EnforcedProps[op.Name] = append(rep.EnforcedProps[op.Name], ps.At(id).Name)
	}
	sort.Strings(rep.EnforcerOperators)
}

func (rep *Report) addAlias(from, to *core.Operation) {
	rep.Aliases[from.Name] = to.Name
}

func (rep *Report) dropT(name, reason string) { rep.DroppedTRules[name] = reason }
func (rep *Report) dropI(name, reason string) { rep.DroppedIRules[name] = reason }

func (rep *Report) finish(in *core.RuleSet, out *volcano.RuleSet) {
	rep.TRulesIn = len(in.TRules)
	rep.IRulesIn = len(in.IRules)
	rep.TransOut = len(out.Trans)
	rep.ImplsOut = len(out.Impls)
	rep.EnforcersOut = len(out.Enforcers)
	for _, e := range out.Enforcers {
		rep.EnforcerAlgorithms = append(rep.EnforcerAlgorithms, e.Alg.Name)
	}
	sort.Strings(rep.EnforcerAlgorithms)
	sort.Strings(rep.EnforcerIRules)
	sort.Strings(rep.RewrittenTRules)
}

// String renders the report as the prairiec CLI prints it.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P2V translation report — algebra %q\n", rep.Algebra)
	fmt.Fprintf(&b, "\nProperty classification (automatic, §3.1):\n")
	fmt.Fprintf(&b, "  cost:      %s\n", rep.CostProp)
	fmt.Fprintf(&b, "  physical:  %s\n", orNone(rep.PhysProps))
	fmt.Fprintf(&b, "  arguments: %s\n", orNone(rep.ArgProps))
	fmt.Fprintf(&b, "\nEnforcer deduction (§2.5):\n")
	if len(rep.EnforcerOperators) == 0 {
		fmt.Fprintf(&b, "  (no enforcer-operators)\n")
	}
	for _, op := range rep.EnforcerOperators {
		fmt.Fprintf(&b, "  enforcer-operator %s (enforces %s)\n", op, orNone(rep.EnforcedProps[op]))
	}
	if len(rep.EnforcerAlgorithms) > 0 {
		fmt.Fprintf(&b, "  enforcer-algorithms: %s\n", strings.Join(rep.EnforcerAlgorithms, ", "))
	}
	fmt.Fprintf(&b, "\nRule merging (§3.3):\n")
	for _, name := range sortedKeys(rep.Aliases) {
		fmt.Fprintf(&b, "  alias: %s => %s\n", name, rep.Aliases[name])
	}
	for _, name := range sortedKeys(rep.DroppedTRules) {
		fmt.Fprintf(&b, "  dropped T-rule %s: %s\n", name, rep.DroppedTRules[name])
	}
	for _, name := range sortedKeys(rep.DroppedIRules) {
		fmt.Fprintf(&b, "  dropped I-rule %s: %s\n", name, rep.DroppedIRules[name])
	}
	for _, name := range rep.EnforcerIRules {
		fmt.Fprintf(&b, "  I-rule %s became an enforcer\n", name)
	}
	fmt.Fprintf(&b, "\nRule counts: %d T-rules, %d I-rules  =>  %d trans_rules, %d impl_rules, %d enforcers\n",
		rep.TRulesIn, rep.IRulesIn, rep.TransOut, rep.ImplsOut, rep.EnforcersOut)
	return b.String()
}

func orNone(s []string) string {
	if len(s) == 0 {
		return "(none)"
	}
	return strings.Join(s, ", ")
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
