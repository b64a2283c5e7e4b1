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
// compiler derives from each rule's statements, the generated hooks bind
// descriptors by the rule's frame slots, and each T-rule is cut for the
// memo by its compiled Slice.
package p2v

import (
	"sort"
	"strings"

	"prairie/internal/core"
)

// writeSet records, per descriptor variable name, the properties an
// action assigns ("Dname.prop"). Whole-descriptor copies ("Dname =
// Dother") are descriptor initialization, not property requests, and are
// not recorded.
type writeSet map[string]map[core.PropID]bool

// actionWrites reads the write-set of an action from the write hints the
// Prairie-language compiler attaches to every rule (the paper's footnote
// 3 hints, computed statically from the statement blocks).
func actionWrites(ps *core.PropertySet, hints []string) writeSet {
	ws := writeSet{}
	for _, h := range hints {
		desc, prop, ok := strings.Cut(h, ".")
		if !ok {
			continue
		}
		if id, ok := ps.Lookup(prop); ok {
			if ws[desc] == nil {
				ws[desc] = map[core.PropID]bool{}
			}
			ws[desc][id] = true
		}
	}
	return ws
}

// propsOf returns the property ids assigned on desc, sorted.
func (ws writeSet) propsOf(desc string) []core.PropID {
	var out []core.PropID
	for id := range ws[desc] {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Classification analysis (§3.1): a property with kind COST is the cost
// property; a property assigned per-property on a right-hand-side input
// stream's descriptor in any I-rule pre-opt section is physical;
// everything else is an operator/algorithm argument.
func classify(rs *core.RuleSet) (costID core.PropID, phys []core.PropID, perRule map[*core.IRule]writeSet) {
	ps := rs.Algebra.Props
	costs := ps.CostProps()
	costID = core.NoProp
	if len(costs) == 1 {
		costID = costs[0]
	}
	physSet := map[core.PropID]bool{}
	perRule = make(map[*core.IRule]writeSet, len(rs.IRules))
	for _, r := range rs.IRules {
		ws := actionWrites(ps, r.Hints.PreWrites)
		perRule[r] = ws
		for _, leafDesc := range rhsInputDescNames(r.RHS) {
			for id := range ws[leafDesc] {
				if id != costID {
					physSet[id] = true
				}
			}
		}
	}
	for id := range physSet {
		phys = append(phys, id)
	}
	sort.Slice(phys, func(i, j int) bool { return phys[i] < phys[j] })
	return costID, phys, perRule
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
