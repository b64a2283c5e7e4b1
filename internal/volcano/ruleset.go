// Package volcano implements a Volcano-style optimizer generator
// (Graefe 1990): a memo of equivalence classes over logical expressions,
// transformation and implementation rules, enforcers, and a top-down
// branch-and-bound search strategy.
//
// It is the back-end search engine of this repository, exactly as the
// Volcano optimizer generator is the back end of the Prairie paper: rule
// sets are either written directly in this package's format (the paper's
// "hand-coded Volcano" baseline) or generated from a Prairie
// specification by the P2V pre-processor (package internal/p2v).
package volcano

import (
	"fmt"
	"sync"
	"sync/atomic"

	"prairie/internal/core"
)

// TransRule is a Volcano trans_rule: a directed logical-to-logical
// rewrite. Cond is the cond_code (a Prairie T-rule's pre-test statements
// and test); Appl is the appl_code (the post-test statements), which must
// fill in the descriptors of all new right-hand-side nodes. The hooks are
// the rule compiler's types and run in one core.Binding, laid out by
// Frame, which the engine reuses — with the descriptors the hooks create
// in it — across all firings: a hook must retain neither.
//
// A rule may hold back in Rest the part of its appl_code that a firing
// needs only if the memo keeps what it built — most firings rediscover a
// known expression. The contract: Appl must leave every identity property
// (RuleSet.IDProps) of every right-hand-side node final; Rest may not
// write one; RestRoot lists exactly the properties Rest writes on the
// right side's root, and Rest must write there what the matched
// expression's group already holds. The engine calls Rest at most once
// per firing, before it keeps any of the firing's descriptors, and not at
// all when it keeps none — or only the root, which joins the matched
// expression's group: the root then takes RestRoot from the group's
// representative, as logical properties are kept once per group.
type TransRule struct {
	Name string
	// Origin records where the rule came from — a source position for
	// DSL-compiled rules, empty for hand-coded ones. The per-rule
	// verifier (internal/rulecheck) reports it with each verdict.
	Origin   string
	LHS, RHS *core.PatNode
	Cond     core.Test     // nil means TRUE
	Appl     core.Action   // nil means no actions
	Rest     core.Action   // nil means Appl does everything
	RestRoot []core.PropID // what Rest writes on the RHS root
	// Frame is the descriptor layout the hooks were compiled against
	// (P2V carries it over from the Prairie rule's cut); LHS and RHS then
	// hold its slots. nil — every hand-coded rule — lets the engine lay
	// the rule out itself, and the hooks find their descriptors by name
	// (core.Binding.D).
	Frame *core.Frame
	// Normalize makes the rule a rewrite of the query rather than a
	// direction to explore: the optimizer applies it to the tree as
	// written until it no longer matches, before the memo sees the tree,
	// and exploration never tries it. A rule may be so marked when
	// exploration reaches everything it would build from the normalized
	// tree anyway — as the MAT pull rules rebuild what the push rules
	// pushed down.
	Normalize bool
	// Involution marks a depth-1 rule that is its own inverse: applied to
	// an expression it built, it rebuilds the expression it was applied
	// to, which the memo holds. Exploration skips it there.
	Involution bool
}

func (r *TransRule) String() string {
	return fmt.Sprintf("%s: %s -> %s", r.Name, r.LHS, r.RHS)
}

// ImplCtx carries the state an implementation rule or enforcer sees. The
// engine builds it and reuses it, its slices and its merged OpDesc for
// every alternative it costs at one recursion depth: hooks must not keep
// cx, Kids, In, InReq, OpDesc or a descriptor of Lend's binding past
// Post, nor write to OpDesc, Req or Kids. Pre may return descriptors of
// the lent binding and InReq as its requirement slice; the engine copies
// algD when a plan keeps it.
type ImplCtx struct {
	// OpDesc is the matched logical expression's descriptor with the
	// required physical properties merged in; for an enforcer it is the
	// group's representative descriptor with the requirement merged in.
	OpDesc *core.Descriptor
	// Req is the required physical-property vector (only classified
	// physical properties are meaningful).
	Req *core.Descriptor
	// Kids holds the representative descriptors of the input groups
	// (logical information available before input optimization).
	Kids []*core.Descriptor
	// In holds the optimized inputs' winner descriptors; it is only
	// populated when Post runs.
	In []*core.Descriptor
	// InReq is a requirement slice as long as Kids, all nil, for an
	// implementation rule's Pre to fill and return.
	InReq []*core.Descriptor
	lent  *core.Binding
}

// Lend returns the engine's binding for this alternative's hooks, laid
// out by the rule's Frame: empty when the alternative begins, and then as
// the earlier hooks left it, so the Cond, Pre and Post stages share one
// binding. It is in Binding.Scratch mode: the descriptors its actions
// create are recycled by slot from one alternative to the next.
func (cx *ImplCtx) Lend() *core.Binding { return cx.lent }

// ImplRule is a Volcano impl_rule: it implements an operator by an
// algorithm. The three hooks correspond to Volcano's support functions
// (Table 4(b) of the paper): Cond is the cond_code plus "do_any_good";
// Pre is "get_input_pv" (it yields the algorithm's provisional output
// descriptor and each input's required physical properties, nil for an
// input it does not constrain); Post is
// "derive_phy_prop" plus "cost" (it finalizes algD, in particular its
// cost property).
type ImplRule struct {
	Name string
	Op   *core.Operation
	Alg  *core.Operation
	Cond func(cx *ImplCtx) bool // nil means TRUE
	Pre  func(cx *ImplCtx) (algD *core.Descriptor, inReq []*core.Descriptor)
	Post func(cx *ImplCtx, algD *core.Descriptor)
	// Frame lays out the binding the hooks borrow (ImplCtx.Lend); nil
	// leaves it unlaid, for hooks that bind by name or borrow nothing.
	Frame *core.Frame
}

func (r *ImplRule) String() string {
	return fmt.Sprintf("%s: %s -> %s", r.Name, r.Op.Name, r.Alg.Name)
}

// Enforcer is a Volcano enforcer: an algorithm that produces a physical
// property (e.g. Merge_sort produces a tuple order) on top of an
// arbitrary plan for the same equivalence class. The engine applies an
// enforcer only when some property in Props is required and not
// DONT_CARE — that gate is the engine's, for every enforcer — and then
// when Cond holds, optimizing the same group with the property relaxed.
// In Prairie, enforcers are ordinary I-rules on an enforcer-operator;
// P2V generates these structures.
type Enforcer struct {
	Name string
	Alg  *core.Operation
	// Props are the physical properties this enforcer can produce.
	Props []core.PropID
	Cond  func(cx *ImplCtx) bool // the enforcer's own test; nil means TRUE
	// Pre yields the enforcer node's provisional descriptor and the
	// relaxed requirement for its input (same group), nil when it
	// requires nothing.
	Pre  func(cx *ImplCtx) (algD *core.Descriptor, inReq *core.Descriptor)
	Post func(cx *ImplCtx, algD *core.Descriptor)
	// Frame lays out the binding the hooks borrow, as ImplRule.Frame.
	Frame *core.Frame
}

func (e *Enforcer) String() string {
	return fmt.Sprintf("enforcer %s (%s)", e.Name, e.Alg.Name)
}

// RuleSet is a complete Volcano optimizer specification: the algebra, the
// property classification, and the rules. It is consumed by Optimizer.
//
// A RuleSet is immutable once the first Optimizer runs over it: the
// operator-indexed rule dispatch tables are built exactly once (on first
// use) and are then shared by every optimizer, concurrent ones included.
type RuleSet struct {
	Algebra   *core.Algebra
	Class     core.Classification
	Trans     []*TransRule
	Impls     []*ImplRule
	Enforcers []*Enforcer

	indexOnce sync.Once
	idx       *ruleIndex
	// cacheID is the rule set's process-unique plan-cache scope,
	// assigned when the dispatch index is built. Two RuleSet instances
	// never share cached plans even when structurally identical: their
	// rule hooks close over different catalogs, so equal-looking queries
	// may cost differently.
	cacheID uint64
}

// cacheScopeCounter allocates process-unique RuleSet.cacheID values.
var cacheScopeCounter atomic.Uint64

// maxTransDepth bounds a transformation rule's left side to an operator
// over operators over inputs. The explorer re-matches a rule at an
// expression only when one of its direct input groups has grown
// (anyKidNewer and exprAdded): a deeper pattern would miss every binding
// whose grand-input arrived after the root's last visit, so Validate
// rejects it.
const maxTransDepth = 2

// transEntry is one transformation rule in the operator index, carrying
// its position in RS.Trans (its ledger row), whether its pattern is
// depth-1 (applied once per expression, never re-matched), and the
// rule's frame with the slot-annotated patterns the matcher binds by (the
// left side flattened into the matcher's steps).
type transEntry struct {
	rule    *TransRule
	row     int
	shallow bool
	lhs     []matchStep
	rhs     *core.PatNode
	frame   *core.Frame
}

// implEntry is one implementation rule in the operator index, with its
// ledger row (len(RS.Trans) plus its position in RS.Impls).
type implEntry struct {
	rule *ImplRule
	row  int
}

// ruleIndex maps a root operator to the rules that can possibly match an
// expression with that operator, replacing the engine's linear
// rule-list scans. It is built once per RuleSet and read-only afterwards.
type ruleIndex struct {
	// trans holds the rules exploration tries, norm the normalizing ones
	// (TransRule.Normalize), and rows every trans_rule by position in
	// RS.Trans.
	trans, norm map[*core.Operation][]transEntry
	rows        []transEntry
	impls       map[*core.Operation][]implEntry
	// commut marks operators with an unconditional commute rule
	// (OP(?a,?b) -> OP(?b,?a), no cond_code): the plan-cache fingerprint
	// may sort their inputs, because the rule proves both orders land in
	// one equivalence class with the same closure and winners.
	commut map[*core.Operation]bool
	// idProps holds, by Operation.Index, the properties that identify an
	// expression of the operation (see RuleSet.idProps), precomputed so
	// the memo's duplicate lookups do not build them per call.
	idProps [][]core.PropID
	// names, shared and args are the most slots, Shared and Args entries
	// of any rule's frame: the size every binding the engine lends a
	// rule's hooks is reserved at (RuleSet.newBinding); arity is the
	// most inputs of any operation, the size of a costing frame's slices
	// (RuleSet.newCostFrame).
	names, shared, args, arity int
	// series holds, by ledger row, the metric series names recordRun
	// flushes the row's counts under, built here once per rule set.
	series []ruleSeries
}

// fit widens the index's binding size to cover f (nil covers nothing).
func (ix *ruleIndex) fit(f *core.Frame) {
	if f != nil {
		ix.names, ix.shared, ix.args = max(ix.names, len(f.Names)), max(ix.shared, len(f.Shared)), max(ix.args, f.Args)
	}
}

// index returns the operator-indexed dispatch tables, building them on
// first use. Safe for concurrent callers; the rule set must not be
// mutated after the first call.
func (rs *RuleSet) index() *ruleIndex {
	rs.indexOnce.Do(func() {
		ix := &ruleIndex{
			trans:  make(map[*core.Operation][]transEntry),
			norm:   make(map[*core.Operation][]transEntry),
			impls:  make(map[*core.Operation][]implEntry),
			commut: make(map[*core.Operation]bool),
		}
		for i, r := range rs.Trans {
			lhs := r.LHS
			te := transEntry{rule: r, row: i, shallow: lhs.Depth() <= 1, rhs: r.RHS, frame: r.Frame}
			if te.frame == nil {
				// Hand-coded rules share pattern nodes between rules.
				lhs, te.rhs = lhs.Clone(), r.RHS.Clone()
				te.frame = core.NewFrame(lhs, te.rhs)
			}
			te.lhs = matchSteps(lhs)
			ix.rows = append(ix.rows, te)
			if r.Normalize {
				ix.norm[r.LHS.Op] = append(ix.norm[r.LHS.Op], te)
			} else {
				ix.trans[r.LHS.Op] = append(ix.trans[r.LHS.Op], te)
			}
			ix.fit(te.frame)
			if op := commutedOp(r); op != nil {
				ix.commut[op] = true
			}
			ix.series = append(ix.series, newRuleSeries("trans", r.Name))
		}
		for i, r := range rs.Impls {
			ix.impls[r.Op] = append(ix.impls[r.Op], implEntry{rule: r, row: len(rs.Trans) + i})
			ix.fit(r.Frame)
			ix.series = append(ix.series, newRuleSeries("impl", r.Name))
		}
		for _, e := range rs.Enforcers {
			ix.fit(e.Frame)
			ix.series = append(ix.series, newRuleSeries("enforcer", e.Name))
		}
		for _, op := range rs.Algebra.Operations() {
			ix.idProps = append(ix.idProps, rs.IDProps(op))
			ix.arity = max(ix.arity, op.Arity)
		}
		rs.cacheID = cacheScopeCounter.Add(1)
		rs.idx = ix
	})
	return rs.idx
}

// commutedOp reports the operator an unconditional binary commute rule
// swaps, or nil. The shape is exactly OP(?a, ?b) -> OP(?b, ?a) with no
// cond_code and a != b: only then does the rule prove — for every
// descriptor — that both input orders are equivalent.
func commutedOp(r *TransRule) *core.Operation {
	if r.Cond != nil || r.LHS == nil || r.RHS == nil {
		return nil
	}
	l, rhs := r.LHS, r.RHS
	if l.Op == nil || l.Op != rhs.Op || len(l.Kids) != 2 || len(rhs.Kids) != 2 {
		return nil
	}
	a, b := l.Kids[0], l.Kids[1]
	if !a.IsVar() || !b.IsVar() || a.Var == b.Var {
		return nil
	}
	if !rhs.Kids[0].IsVar() || !rhs.Kids[1].IsVar() {
		return nil
	}
	if rhs.Kids[0].Var != b.Var || rhs.Kids[1].Var != a.Var {
		return nil
	}
	return l.Op
}

// newBinding returns a Scratch binding reserved for the largest frame of
// the rule set: laying it out by any rule's frame allocates nothing.
func (rs *RuleSet) newBinding() *core.Binding {
	ix := rs.index()
	b := core.NewBinding(rs.Algebra.Props)
	b.Scratch = true
	b.Reserve(ix.names, ix.shared, ix.args)
	return b
}

// cacheScope returns the rule set's process-unique plan-cache scope (a
// counter, not a content hash).
func (rs *RuleSet) cacheScope() uint64 { rs.index(); return rs.cacheID }

// IDProps computes the properties that identify an expression of op in
// duplicate detection (and in the plan-cache fingerprint): the
// operation's declared additional parameters intersected with the
// argument class, or the whole argument class when none are declared.
// It reads the classification only, so a rule set under construction
// (P2V deciding what a rule may defer) can ask before its rules are in.
func (rs *RuleSet) IDProps(op *core.Operation) []core.PropID {
	if len(op.Args) == 0 {
		return rs.Class.Arg
	}
	var ids []core.PropID
	for _, p := range op.Args {
		if rs.Class.IsArg(p) {
			ids = append(ids, p)
		}
	}
	return ids
}

// idProps is IDProps, precomputed in the dispatch index.
func (rs *RuleSet) idProps(op *core.Operation) []core.PropID {
	return rs.index().idProps[op.Index()]
}

// transFor returns the transformation rules exploration tries on an
// expression of op: those whose LHS root is op, normalizing ones left
// out.
func (rs *RuleSet) transFor(op *core.Operation) []transEntry { return rs.index().trans[op] }

// normFor returns the normalizing rules whose LHS root is op.
func (rs *RuleSet) normFor(op *core.Operation) []transEntry { return rs.index().norm[op] }

// implsFor returns the implementation rules for op.
func (rs *RuleSet) implsFor(op *core.Operation) []implEntry { return rs.index().impls[op] }

// NewRuleSet returns an empty rule set with a default classification
// (cost = the algebra's single COST property, everything else argument).
func NewRuleSet(a *core.Algebra) *RuleSet {
	rs := &RuleSet{Algebra: a}
	costs := a.Props.CostProps()
	if len(costs) == 1 {
		rs.Class.Cost = costs[0]
	} else {
		rs.Class.Cost = core.NoProp
	}
	for i := 0; i < a.Props.Len(); i++ {
		id := core.PropID(i)
		if id != rs.Class.Cost {
			rs.Class.Arg = append(rs.Class.Arg, id)
		}
	}
	return rs
}

// SetPhys moves the given properties from the argument class to the
// physical class; hand-coded rule sets use it to state their
// classification explicitly.
func (rs *RuleSet) SetPhys(ids ...core.PropID) {
	for _, id := range ids {
		if !rs.Class.IsPhys(id) {
			rs.Class.Phys = append(rs.Class.Phys, id)
		}
		var arg []core.PropID
		for _, a := range rs.Class.Arg {
			if a != id {
				arg = append(arg, a)
			}
		}
		rs.Class.Arg = arg
	}
}

// AddTrans appends a transformation rule.
func (rs *RuleSet) AddTrans(r *TransRule) *TransRule { rs.Trans = append(rs.Trans, r); return r }

// AddImpl appends an implementation rule.
func (rs *RuleSet) AddImpl(r *ImplRule) *ImplRule { rs.Impls = append(rs.Impls, r); return r }

// AddEnforcer appends an enforcer.
func (rs *RuleSet) AddEnforcer(e *Enforcer) *Enforcer {
	rs.Enforcers = append(rs.Enforcers, e)
	return e
}

// Validate checks engine-level requirements: a cost property is set, rule
// patterns use only operators on T-rule sides and match no deeper than
// maxTransDepth (an involution one operator deep, and never normalizing),
// impl rules have Pre/Post hooks, enforcer property lists are physical.
func (rs *RuleSet) Validate() []error {
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if rs.Class.Cost == core.NoProp {
		bad("volcano: no cost property classified")
	}
	for _, r := range rs.Trans {
		if r.LHS == nil || r.RHS == nil || r.LHS.IsVar() {
			bad("volcano: trans_rule %s has malformed patterns", r.Name)
			continue
		}
		if d := r.LHS.Depth(); d > maxTransDepth {
			bad("volcano: trans_rule %s matches %d operators deep, limit %d: exploration re-matches a rule only when a direct input group grows",
				r.Name, d, maxTransDepth)
		}
		if r.Involution && r.LHS.Depth() != 1 {
			bad("volcano: trans_rule %s is an involution but matches deeper than one operator", r.Name)
		}
		if r.Involution && r.Normalize {
			bad("volcano: trans_rule %s is normalizing and its own inverse: rewriting with it never reaches a fixpoint", r.Name)
		}
		for _, op := range append(r.LHS.Ops(), r.RHS.Ops()...) {
			if op.Kind != core.Operator {
				bad("volcano: trans_rule %s mentions non-operator %s", r.Name, op.Name)
			}
		}
	}
	for _, r := range rs.Impls {
		if r.Op == nil || r.Alg == nil || r.Op.Kind != core.Operator || r.Alg.Kind != core.Algorithm {
			bad("volcano: impl_rule %s has malformed operator/algorithm", r.Name)
		}
		if r.Pre == nil || r.Post == nil {
			bad("volcano: impl_rule %s needs Pre and Post hooks", r.Name)
		}
	}
	for _, e := range rs.Enforcers {
		if e.Alg == nil || e.Alg.Kind != core.Algorithm {
			bad("volcano: enforcer %s has no algorithm", e.Name)
		}
		if e.Pre == nil || e.Post == nil {
			bad("volcano: enforcer %s needs Pre and Post hooks", e.Name)
		}
		for _, p := range e.Props {
			if !rs.Class.IsPhys(p) {
				bad("volcano: enforcer %s enforces non-physical property %s",
					e.Name, rs.Algebra.Props.At(p).Name)
			}
		}
	}
	return errs
}
