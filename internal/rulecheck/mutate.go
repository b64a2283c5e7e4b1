package rulecheck

import (
	"fmt"

	"prairie/internal/core"
	"prairie/internal/volcano"
)

// Mutation testing: seeded corruptions of rule actions, used to measure
// whether the verifier would actually catch a wrong rule. Each mutant is
// one rule with one deliberate defect; the verifier runs against the
// mutant exactly as it would against the real rule, and a mutant it
// fails to distinguish from the original is a survived mutant. The kill
// rate over all non-degenerate mutants is the test of the test.

// Mutation kinds.
const (
	MutSwapInputs = "swap_inputs"
	MutDropPred   = "drop_pred"
	MutWrongOp    = "wrong_op"
)

// Mutant is one corrupted copy of a trans_rule.
type Mutant struct {
	Rule string `json:"rule"`
	Kind string `json:"kind"`
	// Detail says what was corrupted (which inputs, which node).
	Detail string             `json:"detail"`
	R      *volcano.TransRule `json:"-"`
}

// Mutant statuses.
const (
	MutantKilled   = "killed"
	MutantSurvived = "survived"
	MutantDropped  = "dropped"
)

// MutantResult is the verifier's verdict on one mutant.
type MutantResult struct {
	Mutant
	// Status: killed (counterexample found), survived (exercised but
	// undetected), or dropped (the corruption never changed a rewrite —
	// a semantic no-op, excluded from the kill rate).
	Status  string          `json:"status"`
	Sites   int             `json:"sites"`
	Counter *Counterexample `json:"counterexample,omitempty"`
}

// MutationReport aggregates a mutation run over one world.
type MutationReport struct {
	World    string         `json:"world"`
	Mutants  int            `json:"mutants"`
	Killed   int            `json:"killed"`
	Survived int            `json:"survived"`
	Dropped  int            `json:"dropped"`
	KillRate float64        `json:"kill_rate"`
	Results  []MutantResult `json:"results"`
}

// identity-capable operator families: replacing an operator with another
// from its own family can be a semantic no-op (JOIN and JOPR both join;
// SELECT, RET, and SORT all degenerate to the identity when their
// predicate or order parameter is trivial), so wrong_op never picks a
// replacement from the mutated node's family.
var opFamilies = [][]string{
	{"JOIN", "JOPR"},
	{"SELECT", "RET", "SORT"},
}

// predConsumers are the operators whose semantics read a predicate from
// their descriptor (join or selection); drop_pred only targets these.
var predConsumers = map[string]bool{
	"JOIN": true, "JOPR": true, "SELECT": true, "RET": true,
}

func sameFamily(a, b string) bool {
	for _, fam := range opFamilies {
		ina, inb := false, false
		for _, n := range fam {
			ina = ina || n == a
			inb = inb || n == b
		}
		if ina && inb {
			return true
		}
	}
	return false
}

// patVarLeaves returns the variable leaves of a pattern in pre-order.
func patVarLeaves(p *core.PatNode) []*core.PatNode {
	var out []*core.PatNode
	var walk func(*core.PatNode)
	walk = func(n *core.PatNode) {
		if n.IsVar() {
			out = append(out, n)
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(p)
	return out
}

// patInterior returns the interior (operator) nodes of a pattern in
// pre-order.
func patInterior(p *core.PatNode) []*core.PatNode {
	var out []*core.PatNode
	var walk func(*core.PatNode)
	walk = func(n *core.PatNode) {
		if n.IsVar() {
			return
		}
		out = append(out, n)
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(p)
	return out
}

// mutantsOf generates the seeded corruptions of one rule. The LHS is
// never touched, so a mutant matches exactly the sites the real rule
// matches and differs only in what it builds there.
func mutantsOf(rs *volcano.RuleSet, r *volcano.TransRule) []Mutant {
	var out []Mutant

	// swap_inputs: make the rewrite feed one input where another
	// belongs, by aliasing the second distinct RHS variable to the
	// first (JOIN(?1, ?2) becomes JOIN(?1, ?1)).
	leaves := patVarLeaves(r.RHS)
	for i := 1; i < len(leaves); i++ {
		if leaves[i].Var == leaves[0].Var {
			continue
		}
		rhs := r.RHS.Clone()
		ml := patVarLeaves(rhs)
		detail := fmt.Sprintf("?%d := ?%d", ml[i].Var, ml[0].Var)
		ml[i].Var = ml[0].Var
		mr := *r
		mr.RHS = rhs
		out = append(out, Mutant{Rule: r.Name, Kind: MutSwapInputs, Detail: detail, R: &mr})
		break // one aliasing per rule is enough
	}

	// drop_pred: after the real action runs, blank every predicate the
	// action set on a new RHS node (the classic "forgot to carry the
	// predicate over" bug). Only nodes whose operator evaluates a
	// predicate count — blanking a pred nothing reads corrupts nothing.
	// A rule that defers part of its action (TransRule.Rest) may assign
	// a predicate in either part, so both are followed by the blanking.
	var rhsDescs []string
	for _, n := range patInterior(r.RHS) {
		if n.Desc != "" && predConsumers[n.Op.Name] {
			rhsDescs = append(rhsDescs, n.Desc)
		}
	}
	ps := rs.Algebra.Props
	var predProps []core.PropID
	for i := 0; i < ps.Len(); i++ {
		if ps.At(core.PropID(i)).Kind == core.KindPred {
			predProps = append(predProps, core.PropID(i))
		}
	}
	if len(rhsDescs) > 0 && len(predProps) > 0 {
		blanked := func(orig func(*volcano.TBinding)) func(*volcano.TBinding) {
			return func(b *volcano.TBinding) {
				if orig != nil {
					orig(b)
				}
				for _, name := range rhsDescs {
					d := b.D(name)
					for _, p := range predProps {
						if d.Has(p) {
							d.Set(p, core.TruePred)
						}
					}
				}
			}
		}
		mr := *r
		mr.Appl = blanked(r.Appl)
		if r.Rest != nil {
			mr.Rest = blanked(r.Rest)
		}
		out = append(out, Mutant{Rule: r.Name, Kind: MutDropPred,
			Detail: fmt.Sprintf("preds of %v := TRUE", rhsDescs), R: &mr})
	}

	// wrong_op: rebuild one RHS node with a different operator of the
	// same arity (skipping the node's identity family, where the swap
	// could be a semantic no-op rather than a bug).
	interior := patInterior(r.RHS)
	wrongOps := 0
	for idx, n := range interior {
		var repl *core.Operation
		for _, cand := range rs.Algebra.Operators() {
			if cand == n.Op || cand.Arity != n.Op.Arity || sameFamily(cand.Name, n.Op.Name) {
				continue
			}
			repl = cand
			break
		}
		if repl == nil {
			continue
		}
		rhs := r.RHS.Clone()
		mn := patInterior(rhs)[idx]
		detail := fmt.Sprintf("%s := %s", mn.Op.Name, repl.Name)
		mn.Op = repl
		mr := *r
		mr.RHS = rhs
		out = append(out, Mutant{Rule: r.Name, Kind: MutWrongOp, Detail: detail, R: &mr})
		if wrongOps++; wrongOps >= 2 {
			break
		}
	}
	return out
}

// runMutant verifies one mutant: every site the rule matches is rewritten
// by both the pristine rule and the mutant; sites where the two rewrites
// are structurally identical are semantic no-ops of the corruption and
// are skipped. A differential failure of the mutant's rewrite against
// the original tree kills the mutant.
func (v *verifier) runMutant(pristine *volcano.TransRule, mu Mutant) MutantResult {
	res := MutantResult{Mutant: mu}
	sites, exercised := 0, 0
	for _, tree := range v.pool {
		mp := v.w.RS.TreeMatches(pristine, tree)
		mm := v.w.RS.TreeMatches(mu.R, tree)
		if len(mp) != len(mm) {
			continue // same LHS, so this cannot happen; skip defensively
		}
		for i := range mm {
			prw, okP := v.w.RS.ApplyAt(pristine, tree, mp[i])
			mrw, okM := v.w.RS.ApplyAt(mu.R, tree, mm[i])
			if !okP || !okM {
				continue
			}
			sites++
			if mrw.Format() == prw.Format() {
				continue // corruption changed nothing here
			}
			exercised++
			if ce, _ := v.checkSite(tree, mrw); ce != nil {
				res.Status = MutantKilled
				res.Sites = sites
				res.Counter = ce
				return res
			}
			if sites >= maxSites {
				res.Sites = sites
				res.Status = MutantSurvived
				return res
			}
		}
	}
	res.Sites = sites
	if exercised == 0 {
		res.Status = MutantDropped
	} else {
		res.Status = MutantSurvived
	}
	return res
}

// MutationTest corrupts every trans_rule of the world in seeded,
// deterministic ways and reports how many corruptions the verifier
// kills. Degenerate mutants (corruptions that never change a rewrite)
// are dropped from the rate's denominator.
func MutationTest(w *World) *MutationReport {
	v := newVerifier(w)
	rep := &MutationReport{World: w.Name}
	for _, r := range w.RS.Trans {
		for _, mu := range mutantsOf(w.RS, r) {
			res := v.runMutant(r, mu)
			rep.Results = append(rep.Results, res)
			rep.Mutants++
			switch res.Status {
			case MutantKilled:
				rep.Killed++
			case MutantSurvived:
				rep.Survived++
			case MutantDropped:
				rep.Dropped++
			}
		}
	}
	if live := rep.Mutants - rep.Dropped; live > 0 {
		rep.KillRate = float64(rep.Killed) / float64(live)
	}
	return rep
}
