// Package p2v implements the paper's P2V pre-processor: it translates a
// Prairie rule set (package internal/core) into a Volcano rule set
// (package internal/volcano) that the search engine can process
// efficiently.
//
// The translation performs the three analyses of Section 3 of the paper:
//
//  1. Enforcer deduction — an operator with a Null implementation is an
//     enforcer-operator; its other single-input algorithms become Volcano
//     enforcers.
//  2. Automatic property classification — the single Prairie descriptor
//     is split into Volcano's operator/algorithm argument, physical
//     property, and cost classes by inspecting the rules' actions.
//  3. Rule rewriting and merging — enforcer-operators are deleted from
//     T-rule patterns; rules that become idempotent are dropped and their
//     operator aliases substituted, producing a compact Volcano rule set.
//
// It translates only rule sets the Prairie-language compiler
// (internal/prairielang) built: classification reads the write hints the
// compiler derives from each I-rule's pre-opt statements, the generated
// hooks bind descriptors by the rule's frame slots, and each T-rule is
// cut for the memo by its compiled Slice.
package p2v

import (
	"slices"

	"prairie/internal/core"
)

// Classification analysis (§3.1): a property with kind COST is the cost
// property; a property assigned per-property on a right-hand-side input
// stream's descriptor in any I-rule pre-opt section is physical;
// everything else is an operator/algorithm argument.
func classify(rs *core.RuleSet) (costID core.PropID, phys []core.PropID) {
	costID = core.NoProp
	if costs := rs.Algebra.Props.CostProps(); len(costs) == 1 {
		costID = costs[0]
	}
	for _, r := range rs.IRules {
		for _, id := range inputWrites(r, costID) {
			if !slices.Contains(phys, id) {
				phys = append(phys, id)
			}
		}
	}
	slices.Sort(phys)
	return costID, phys
}

// inputWrites returns the properties other than costID that r's pre-opt
// statements assign on its right side's input stream descriptors, sorted.
// It reads them off the write hints the Prairie-language compiler
// attaches to every I-rule (the paper's footnote 3 hints); a
// whole-descriptor copy ("D4 = D1") initializes a descriptor and requests
// no property, so the compiler lists none for it.
func inputWrites(r *core.IRule, costID core.PropID) []core.PropID {
	inputs := rhsInputDescNames(r.RHS)
	var out []core.PropID
	for _, w := range r.PreWrites {
		if w.Prop != costID && slices.Contains(inputs, w.Desc) && !slices.Contains(out, w.Prop) {
			out = append(out, w.Prop)
		}
	}
	slices.Sort(out)
	return out
}

// rhsInputDescNames returns the descriptor names attached to variable
// leaves on a rule's right side — the "input stream descriptors" whose
// pre-opt assignments mark physical properties.
func rhsInputDescNames(rhs *core.PatNode) []string {
	var out []string
	var walk func(*core.PatNode)
	walk = func(n *core.PatNode) {
		if n.IsVar() {
			if n.Desc != "" {
				out = append(out, n.Desc)
			}
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(rhs)
	return out
}
