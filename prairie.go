// Package prairie is the public API of this repository: a Go
// implementation of Prairie (Das & Batory, ICDE 1995), a rule
// specification framework for query optimizers, together with the P2V
// pre-processor and a Volcano-style optimizer generator as its back-end
// search engine.
//
// A user builds an optimizer in four steps:
//
//  1. declare an algebra (operators, algorithms, descriptor properties)
//     and helper signatures in the Prairie rule-specification language;
//  2. write T-rules and I-rules over uniform descriptors in the same
//     text, and compile it with ParseRules (or ParseRulesAll for a base
//     module plus extensions), supplying the helpers' Go bodies;
//  3. call Generate, which runs the P2V pre-processor: it deduces
//     enforcers, classifies properties, merges rules, and emits a
//     Volcano rule set plus a translation report;
//  4. call NewOptimizer and Optimize initialized operator trees into
//     access plans.
//
// See examples/quickstart for a complete program.
package prairie

import (
	"prairie/internal/core"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
	"prairie/internal/volcano"
)

// Core model types (Section 2 of the paper).
type (
	// Algebra registers one optimizer's operators, algorithms and
	// descriptor properties.
	Algebra = core.Algebra
	// Operation is an abstract operator or a concrete algorithm.
	Operation = core.Operation
	// PropertySet registers named, typed descriptor properties.
	PropertySet = core.PropertySet
	// PropID identifies a property.
	PropID = core.PropID
	// Descriptor is the uniform annotation list on every node.
	Descriptor = core.Descriptor
	// Value is a descriptor property value.
	Value = core.Value
	// Kind is a property/value kind.
	Kind = core.Kind
	// Expr is an operator tree / access plan node.
	Expr = core.Expr
	// RuleSet is a compiled Prairie specification.
	RuleSet = core.RuleSet
	// Attr names an attribute of a class or stream.
	Attr = core.Attr
	// Attrs is an attribute list value.
	Attrs = core.Attrs
	// Pred is a predicate value.
	Pred = core.Pred
	// Order is a tuple-order value.
	Order = core.Order
)

// Value kinds.
const (
	KindInt    = core.KindInt
	KindFloat  = core.KindFloat
	KindBool   = core.KindBool
	KindString = core.KindString
	KindOrder  = core.KindOrder
	KindAttrs  = core.KindAttrs
	KindPred   = core.KindPred
	KindCost   = core.KindCost
)

// Engine types (the Volcano back end).
type (
	// VolcanoRuleSet is a translated (or hand-coded) engine rule set.
	VolcanoRuleSet = volcano.RuleSet
	// Optimizer runs top-down branch-and-bound optimization.
	Optimizer = volcano.Optimizer
	// Plan is a physical expression (an access plan).
	Plan = volcano.PExpr
	// Stats describes one optimization's search.
	Stats = volcano.Stats
	// Report documents a P2V translation.
	Report = p2v.Report
	// HelperImpl is a Go implementation of a declared DSL helper.
	HelperImpl = prairielang.HelperImpl
)

// Scalar value types.
type (
	// Int is an integer property value.
	Int = core.Int
	// Float is a floating-point property value.
	Float = core.Float
	// Bool is a boolean property value.
	Bool = core.Bool
	// Str is a string property value.
	Str = core.Str
	// Cost is an estimated-cost property value.
	Cost = core.Cost
)

// Value constructors and common constants.
var (
	// A builds an attribute reference "Rel.Name".
	A = core.A
	// OrderBy builds a tuple order sorted on the given attributes.
	OrderBy = core.OrderBy
	// DontCareOrder is the paper's DONT_CARE tuple order.
	DontCareOrder = core.DontCareOrder
	// EqAttr builds the join term "a = b".
	EqAttr = core.EqAttr
	// EqConst builds the selection term "a = c".
	EqConst = core.EqConst
	// And conjoins predicates.
	And = core.And
	// TruePred is the always-true predicate.
	TruePred = core.TruePred
)

// ParseRulesAll compiles several specification sources (a base module
// plus extensions) into one rule set — the modular composition the
// paper's conclusion proposes.
func ParseRulesAll(srcs []string, impls map[string]HelperImpl) (*RuleSet, error) {
	return prairielang.ParseAndCompileAll(srcs, impls)
}

// NewDescriptor returns an empty descriptor over a property set.
func NewDescriptor(ps *PropertySet) *Descriptor { return core.NewDescriptor(ps) }

// Operator-tree constructors.
var (
	// NewLeaf builds a stored-file leaf of an operator tree.
	NewLeaf = core.NewLeaf
	// NewNode builds an interior operator-tree node.
	NewNode = core.NewNode
)

// ParseRules compiles a Prairie rule-specification source (the textual
// language of the paper's P2V front end) into a rule set; impls provides
// the Go bodies of the declared helper functions.
func ParseRules(src string, impls map[string]HelperImpl) (*RuleSet, error) {
	return prairielang.ParseAndCompile(src, impls)
}

// CheckRules parses and checks a specification source, returning all
// problems found.
func CheckRules(src string) []error { return prairielang.Check(src) }

// Generate runs the P2V pre-processor on a Prairie rule set: it deduces
// enforcer-operators, classifies descriptor properties automatically,
// merges rules, and returns an executable Volcano rule set together with
// the translation report.
func Generate(rs *RuleSet) (*VolcanoRuleSet, *Report, error) {
	return p2v.Translate(rs)
}

// NewOptimizer returns an optimizer for a generated (or hand-coded)
// Volcano rule set.
func NewOptimizer(vrs *VolcanoRuleSet) *Optimizer { return volcano.NewOptimizer(vrs) }

// Optimize is the one-call convenience path: translate the rule set,
// prepare the query (stripping enforcer-operators at the root into
// physical-property requirements), and return the winning access plan
// with the search statistics.
func Optimize(rs *RuleSet, query *Expr, req *Descriptor) (*Plan, *Stats, error) {
	vrs, rep, err := p2v.Translate(rs)
	if err != nil {
		return nil, nil, err
	}
	query, req, err = rep.PrepareQuery(query, req)
	if err != nil {
		return nil, nil, err
	}
	opt := volcano.NewOptimizer(vrs)
	plan, err := opt.Optimize(query, req)
	if err != nil {
		return nil, opt.Stats, err
	}
	return plan, opt.Stats, nil
}
