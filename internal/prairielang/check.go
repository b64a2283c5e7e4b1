package prairielang

import (
	"cmp"
	"fmt"
	"slices"

	"prairie/internal/core"
)

// checker resolves a parsed specification against its declared algebra
// and checks it: the one gate a specification passes, Check and Compile
// alike, every error at a source position. It checks the declarations
// (no name twice, exactly one cost property), each rule's shape (§2.3,
// §2.4, §2.5), variables and descriptor names, its statements and
// expressions (types, helper signatures, left-hand-side descriptors never
// assigned), that no T-rule's right side contains its left, that every
// rule declared normalizing is a T-rule, and that every operator is
// implementable.
type checker struct {
	spec    *Spec
	alg     *core.Algebra
	helpers map[string]*HelperDecl
	rules   map[string]bool
	errs    []error
	// trules and irules hold each rule as resolved, by declaration order.
	trules, irules []resolved
}

// resolved is a rule as the checker resolved it: its patterns, laid out
// in its frame.
type resolved struct {
	lhs, rhs *core.PatNode
	sc       ruleScope
}

// check runs every check on spec.
func check(spec *Spec) *checker {
	c := &checker{spec: spec, alg: core.NewAlgebra(cmp.Or(spec.Name, "prairie")), helpers: map[string]*HelperDecl{}, rules: map[string]bool{}}
	c.declare()
	for _, d := range spec.TRules {
		c.trules = append(c.trules, c.checkTRule(d))
	}
	for _, d := range spec.IRules {
		c.irules = append(c.irules, c.checkIRule(d))
	}
	for _, r := range spec.Normalize {
		if !slices.ContainsFunc(spec.TRules, func(d *TRuleDecl) bool { return d.Name == r.Name }) {
			c.errf(r.Pos, "normalize: %s is not a T-rule of the specification", r.Name)
		}
	}
	c.checkImplementable()
	return c
}

func (c *checker) errf(pos Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, errf(pos, format, args...))
}

func (c *checker) declare() {
	seen := map[string]bool{}
	for _, p := range c.spec.Props {
		if seen["p:"+p.Name] {
			c.errf(p.Pos, "property %q declared twice", p.Name)
			continue
		}
		seen["p:"+p.Name] = true
		if p.Kind == core.KindCost && len(c.alg.Props.CostProps()) > 0 {
			c.errf(p.Pos, "property %q is a second cost property; a specification declares exactly one", p.Name)
		}
		c.alg.Props.Define(p.Name, p.Kind)
	}
	if len(c.alg.Props.CostProps()) == 0 {
		c.errf(Pos{Line: 1, Col: 1}, "the specification declares no cost property")
	}
	for _, o := range c.spec.Ops {
		if seen["o:"+o.Name] {
			c.errf(o.Pos, "operation %q declared twice", o.Name)
			continue
		}
		seen["o:"+o.Name] = true
		var op *core.Operation
		if o.Kind == core.Operator {
			op = c.alg.Operator(o.Name, o.Arity)
		} else {
			op = c.alg.Algorithm(o.Name, o.Arity)
		}
		for _, name := range o.Args {
			id, ok := c.alg.Props.Lookup(name)
			if !ok {
				c.errf(o.Pos, "operation %s: unknown argument property %q", o.Name, name)
				continue
			}
			op.Args = append(op.Args, id)
		}
	}
	for _, o := range c.spec.Ops {
		if o.Implements == "" {
			continue
		}
		impl, ok := c.alg.Op(o.Implements)
		if !ok || impl.Kind != core.Operator {
			c.errf(o.Pos, "algorithm %s implements unknown operator %q", o.Name, o.Implements)
		}
	}
	for _, h := range c.spec.Helpers {
		if c.helpers[h.Name] != nil {
			c.errf(h.Pos, "helper %q declared twice", h.Name)
			continue
		}
		c.helpers[h.Name] = h
	}
}

// resolvePattern converts a pattern AST into a core pattern.
func (c *checker) resolvePattern(p *PatAST) *core.PatNode {
	if p.Op == "" {
		return &core.PatNode{Var: p.Var, Desc: p.Desc}
	}
	op, ok := c.alg.Op(p.Op)
	if !ok {
		c.errf(p.Pos, "unknown operation %q", p.Op)
		return &core.PatNode{Var: 1}
	}
	if len(p.Kids) != op.Arity {
		c.errf(p.Pos, "%s expects %d inputs, pattern has %d", op.Name, op.Arity, len(p.Kids))
	}
	kids := make([]*core.PatNode, len(p.Kids))
	for i, k := range p.Kids {
		kids[i] = c.resolvePattern(k)
	}
	return &core.PatNode{Op: op, Desc: p.Desc, Kids: kids}
}

// sides checks that a rule's name is new, resolves its patterns, lays out
// its frame, and checks the bindings: the left side's variables are
// distinct and bind the right side's, each descriptor name is bound once,
// and both roots are named. ok reports whether every operation resolved,
// as declared.
func (c *checker) sides(pos Pos, rule string, l, r *PatAST) (lhs, rhs *core.PatNode, sc ruleScope, ok bool) {
	if c.rules[rule] {
		c.errf(pos, "rule %s: duplicate rule name", rule)
	}
	c.rules[rule] = true
	n := len(c.errs)
	lhs, rhs = c.resolvePattern(l), c.resolvePattern(r)
	ok = len(c.errs) == n
	vars, descs := map[int]bool{}, map[string]bool{}
	var walk func(p *PatAST, left bool)
	walk = func(p *PatAST, left bool) {
		if descs[p.Desc] {
			c.errf(p.Pos, "rule %s: descriptor %s bound more than once", rule, p.Desc)
		}
		descs[p.Desc] = p.Desc != ""
		for _, k := range p.Kids {
			walk(k, left)
		}
		if p.Op != "" {
			return
		}
		switch {
		case !left:
			if !vars[p.Var] {
				c.errf(p.Pos, "rule %s: variable ?%d on right side is unbound", rule, p.Var)
			}
		case p.Var <= 0:
			c.errf(p.Pos, "rule %s: variable ?%d must be positive", rule, p.Var)
		case vars[p.Var]:
			c.errf(p.Pos, "rule %s: variable ?%d repeated on left side", rule, p.Var)
		}
		vars[p.Var] = vars[p.Var] || left
	}
	walk(l, true)
	walk(r, false)
	if l.Desc == "" {
		c.errf(l.Pos, "rule %s: left-side root needs a descriptor name", rule)
	}
	if r.Op != "" && r.Desc == "" {
		c.errf(r.Pos, "rule %s: right-side root needs a descriptor name", rule)
	}
	return lhs, rhs, scopeOf(lhs, rhs), ok
}

// operatorsOnly reports every algorithm in a T-rule pattern.
func (c *checker) operatorsOnly(rule string, p *PatAST) {
	if op, ok := c.alg.Op(p.Op); ok && op.Kind != core.Operator {
		c.errf(p.Pos, "rule %s: T-rule mentions algorithm %s; T-rule sides involve only abstract operators", rule, op.Name)
	}
	for _, k := range p.Kids {
		c.operatorsOnly(rule, k)
	}
}

func (c *checker) checkTRule(d *TRuleDecl) resolved {
	lhs, rhs, sc, _ := c.sides(d.Pos, d.Name, d.LHS, d.RHS)
	if d.LHS.Op == "" {
		c.errf(d.LHS.Pos, "rule %s: left side must be an operator expression", d.Name)
	}
	c.operatorsOnly(d.Name, d.LHS)
	c.operatorsOnly(d.Name, d.RHS)
	if d.LHS.Op != "" && c.embeds(d, d.RHS) {
		c.errf(d.Pos, "rule %s: the right side contains the whole left side, so the group the rule rewrites would become its own input", d.Name)
	}
	c.checkStmts(d.PreTest, sc)
	c.checkTest(d.Name, d.Test, sc)
	c.checkStmts(d.PostTest, sc)
	c.checkReads(d, sc)
	return resolved{lhs, rhs, sc}
}

// embeds reports whether a proper sub-pattern of p is d's whole left
// side, and so the expression the rule matched: the same operators over
// the same variables, where an operator with argument properties
// (args(...)) carries its left-side node's (see copiesArgs).
func (c *checker) embeds(d *TRuleDecl, p *PatAST) bool {
	for _, k := range p.Kids {
		if c.same(d, k, d.LHS) || c.embeds(d, k) {
			return true
		}
	}
	return false
}

// same reports whether right-side pattern r is left-side pattern l.
func (c *checker) same(d *TRuleDecl, r, l *PatAST) bool {
	if r.Op != l.Op || r.Var != l.Var || len(r.Kids) != len(l.Kids) {
		return false
	}
	for i := range r.Kids {
		if !c.same(d, r.Kids[i], l.Kids[i]) {
			return false
		}
	}
	op, ok := c.alg.Op(r.Op)
	return !ok || len(op.Args) == 0 || r.Desc != "" && c.copiesArgs(d, r.Desc, l.Desc, op)
}

// copiesArgs reports whether d's statements copy descriptor l whole into
// r, once, and assign none of op's arguments on r. select_split's inner
// SELECT, whose predicate is reassigned, is another expression than the
// SELECT it matched.
func (c *checker) copiesArgs(d *TRuleDecl, r, l string, op *core.Operation) bool {
	copies := 0
	for _, stmts := range [2][]*Stmt{d.PreTest, d.PostTest} {
		for _, st := range stmts {
			if st.Dst != r {
				continue
			}
			if st.Prop == "" {
				if st.Src != l {
					return false
				}
				copies++
			}
			for _, id := range op.Args {
				if c.alg.Props.At(id).Name == st.Prop {
					return false
				}
			}
		}
	}
	return copies == 1
}

func (c *checker) checkIRule(d *IRuleDecl) resolved {
	lhs, rhs, sc, ok := c.sides(d.Pos, d.Name, d.LHS, d.RHS)
	if ok {
		c.checkIRuleShape(d, lhs, rhs)
	}
	c.checkTest(d.Name, d.Test, sc)
	c.checkStmts(d.PreOpt, sc)
	c.checkStmts(d.PostOpt, sc)
	// The post-opt section computes the algorithm's cost (§2.4); the
	// search compares alternatives by nothing else.
	if costs := c.alg.Props.CostProps(); len(costs) == 1 && rhs.Desc != "" {
		cost := c.alg.Props.At(costs[0]).Name
		if !slices.ContainsFunc(d.PostOpt, func(st *Stmt) bool { return st.Dst == rhs.Desc && st.Prop == cost }) {
			c.errf(d.Pos, "rule %s: post-opt must assign %s.%s, the cost of its algorithm", d.Name, rhs.Desc, cost)
		}
	}
	return resolved{lhs, rhs, sc}
}

// checkIRuleShape checks that an I-rule maps one operator over inputs to
// one algorithm over as many inputs — or, a Null rule, a single-input
// operator to Null over an input with a fresh descriptor, the one its
// pre-opt propagates the enforced properties to (§2.5).
func (c *checker) checkIRuleShape(d *IRuleDecl, lhs, rhs *core.PatNode) {
	bad := func(p *PatAST, format string, args ...interface{}) {
		c.errf(p.Pos, "rule %s: "+format, append([]interface{}{d.Name}, args...)...)
	}
	if lhs.IsVar() || rhs.IsVar() {
		bad(d.LHS, "I-rule sides must be operation expressions")
		return
	}
	op, alg := lhs.Op, rhs.Op
	switch {
	case op.Kind != core.Operator:
		bad(d.LHS, "I-rule left side %s is not an abstract operator", op.Name)
	case lhs.Depth() != 1:
		bad(d.LHS, "I-rule left side must be a single operator over inputs")
	}
	switch {
	case alg.Kind != core.Algorithm:
		bad(d.RHS, "I-rule right side %s is not an algorithm", alg.Name)
	case rhs.Depth() != 1:
		bad(d.RHS, "I-rule right side must be a single algorithm over inputs")
	case alg.IsNull() && op.Arity != 1:
		bad(d.RHS, "Null rules require a single-input operator (got arity %d)", op.Arity)
	case alg.IsNull() && len(rhs.Kids) == 1 && rhs.Kids[0].Desc == "":
		bad(d.RHS, "Null rule input needs a fresh descriptor to propagate properties (§2.5)")
	case !alg.IsNull() && alg.Arity != op.Arity:
		bad(d.RHS, "algorithm %s arity %d != operator %s arity %d", alg.Name, alg.Arity, op.Name, op.Arity)
	}
}

// checkImplementable reports every operator no I-rule implements and no
// T-rule rewrites into an implementable operator, at its declaration.
func (c *checker) checkImplementable() {
	impl := map[*core.Operation]bool{}
	for _, r := range c.irules {
		impl[r.lhs.Op] = true
	}
	for changed := true; changed; {
		changed = false
		for _, r := range c.trules {
			if !r.lhs.IsVar() && !impl[r.lhs.Op] && (r.rhs.IsVar() || impl[r.rhs.Op]) {
				impl[r.lhs.Op], changed = true, true
			}
		}
	}
	for _, o := range c.spec.Ops {
		if op, _ := c.alg.Op(o.Name); op.Kind == core.Operator && !impl[op] {
			c.errf(o.Pos, "operator %s has no I-rule and no T-rule rewriting it to an implementable operator", o.Name)
			impl[op] = true // reported once, if declared twice
		}
	}
}

// ruleScope tracks a rule's descriptor names — per side for statement
// checking, and by frame slot for the code the compiler emits.
type ruleScope struct {
	frame    *core.Frame
	lhs, rhs map[string]bool
}

// scopeOf lays out the rule's frame (recording slots in the patterns)
// and returns its scope.
func scopeOf(lhs, rhs *core.PatNode) ruleScope {
	s := ruleScope{frame: core.NewFrame(lhs, rhs), lhs: map[string]bool{}, rhs: map[string]bool{}}
	for _, n := range lhs.DescNames() {
		s.lhs[n] = true
	}
	for _, n := range rhs.DescNames() {
		s.rhs[n] = true
	}
	return s
}

func (s ruleScope) known(name string) bool { return s.lhs[name] || s.rhs[name] }

// slot returns the frame slot of a known name.
func (s ruleScope) slot(name string) int { return slices.Index(s.frame.Names, name) }

// checkStmts validates a statement block and resolves its descriptor
// slots and property ids.
func (c *checker) checkStmts(stmts []*Stmt, sc ruleScope) {
	for _, st := range stmts {
		if !sc.known(st.Dst) {
			c.errf(st.Pos, "descriptor %q is not bound by the rule's patterns", st.Dst)
			continue
		}
		if sc.lhs[st.Dst] {
			c.errf(st.Pos, "descriptor %s is on the rule's left side; left-hand-side descriptors are never changed (§2.3)", st.Dst)
		}
		st.dst = sc.slot(st.Dst)
		if st.Prop == "" {
			if !sc.known(st.Src) {
				c.errf(st.Pos, "descriptor %q is not bound by the rule's patterns", st.Src)
			}
			st.src = sc.slot(st.Src)
			continue
		}
		id, ok := c.alg.Props.Lookup(st.Prop)
		if !ok {
			c.errf(st.Pos, "unknown property %q", st.Prop)
			continue
		}
		want := c.alg.Props.At(id).Kind
		st.id, st.kind = id, want
		got := c.checkExpr(st.RHS, sc, want)
		if !kindsCompatible(got, want) {
			c.errf(st.Pos, "cannot assign %v to %s.%s (%v)", got, st.Dst, st.Prop, want)
		}
	}
}

func (c *checker) checkTest(rule string, test Expr, sc ruleScope) {
	if test == nil {
		return
	}
	if got := c.checkExpr(test, sc, core.KindBool); !kindsCompatible(got, core.KindBool) {
		c.errf(test.ExprPos(), "rule %s: test must be boolean, got %v", rule, got)
	}
}

// checkReads reports a T-rule reading a property of a right-side
// descriptor before any of its statements — pre-test, test, post-test,
// in that order — assigns it: the read would see the property's default,
// whatever the rewritten expression is meant to carry. A whole-descriptor
// copy assigns every property, and reads every property of its source.
func (c *checker) checkReads(d *TRuleDecl, sc ruleScope) {
	set := map[string]bool{} // "D" once copied into, "D.p" once assigned
	unset := func(desc, prop string) bool {
		return sc.rhs[desc] && !sc.lhs[desc] && !set[desc] && (prop == "" || !set[desc+"."+prop])
	}
	reads := func(e Expr) {
		anyMember(e, func(x *Member) bool {
			if unset(x.Desc, x.Prop) {
				c.errf(x.Pos, "rule %s: %s.%s is read before any statement assigns it", d.Name, x.Desc, x.Prop)
			}
			return false
		})
	}
	block := func(stmts []*Stmt) {
		for _, st := range stmts {
			if st.Prop != "" {
				reads(st.RHS)
				set[st.Dst+"."+st.Prop] = true
				continue
			}
			if unset(st.Src, "") {
				c.errf(st.Pos, "rule %s: %s is copied before a statement assigns all of it", d.Name, st.Src)
			}
			set[st.Dst] = true
		}
	}
	block(d.PreTest)
	if d.Test != nil {
		reads(d.Test)
	}
	block(d.PostTest)
}

func kindsCompatible(got, want core.Kind) bool {
	if got == want || got == core.KindInvalid {
		return true
	}
	num := func(k core.Kind) bool {
		return k == core.KindFloat || k == core.KindCost || k == core.KindInt
	}
	return num(got) && num(want)
}

// checkExpr type-checks an expression, recording the result kind on the
// node. expected guides contextual literals (DONT_CARE); pass
// core.KindInvalid when no context exists.
func (c *checker) checkExpr(e Expr, sc ruleScope, expected core.Kind) core.Kind {
	switch x := e.(type) {
	case *NumLit:
		x.kind = core.KindFloat
	case *StrLit:
		x.kind = core.KindString
	case *BoolLit:
		x.kind = core.KindBool
	case *DontCareLit:
		if expected == core.KindInvalid {
			expected = core.KindOrder
		}
		x.kind = expected
	case *Member:
		if !sc.known(x.Desc) {
			c.errf(x.Pos, "descriptor %q is not bound by the rule's patterns", x.Desc)
			x.kind = core.KindInvalid
			break
		}
		id, ok := c.alg.Props.Lookup(x.Prop)
		if !ok {
			c.errf(x.Pos, "unknown property %q", x.Prop)
			x.kind = core.KindInvalid
			break
		}
		x.ID, x.slot = id, sc.slot(x.Desc)
		x.kind = c.alg.Props.At(id).Kind
	case *Call:
		decl := c.helpers[x.Name]
		if decl == nil {
			c.errf(x.Pos, "unknown helper %q", x.Name)
			x.kind = core.KindInvalid
			break
		}
		if len(x.Args) != len(decl.Params) {
			c.errf(x.Pos, "helper %s expects %d arguments, got %d", x.Name, len(decl.Params), len(x.Args))
		}
		for i, a := range x.Args {
			want := core.KindInvalid
			if i < len(decl.Params) {
				want = decl.Params[i]
			}
			got := c.checkExpr(a, sc, want)
			if want != core.KindInvalid && !kindsCompatible(got, want) {
				c.errf(a.ExprPos(), "helper %s argument %d: expected %v, got %v", x.Name, i+1, want, got)
			}
		}
		x.kind = decl.Result
	case *Unary:
		switch x.Op {
		case TokBang:
			got := c.checkExpr(x.X, sc, core.KindBool)
			if !kindsCompatible(got, core.KindBool) {
				c.errf(x.Pos, "'!' needs a boolean operand, got %v", got)
			}
			x.kind = core.KindBool
		default: // TokMinus
			got := c.checkExpr(x.X, sc, core.KindFloat)
			if !kindsCompatible(got, core.KindFloat) {
				c.errf(x.Pos, "'-' needs a numeric operand, got %v", got)
			}
			x.kind = core.KindFloat
		}
	case *Binary:
		x.kind = c.checkBinary(x, sc)
	default:
		c.errs = append(c.errs, fmt.Errorf("prairielang: unknown expression %T", e))
	}
	return e.Kind()
}

func (c *checker) checkBinary(x *Binary, sc ruleScope) core.Kind {
	switch x.Op {
	case TokAndAnd, TokOrOr:
		for _, side := range []Expr{x.L, x.R} {
			if got := c.checkExpr(side, sc, core.KindBool); !kindsCompatible(got, core.KindBool) {
				c.errf(side.ExprPos(), "boolean operator needs boolean operands, got %v", got)
			}
		}
		return core.KindBool
	case TokEq, TokNe:
		// Check the side with intrinsic type first so a DONT_CARE on
		// the other side adopts its kind.
		l := c.checkExpr(x.L, sc, core.KindInvalid)
		r := c.checkExpr(x.R, sc, l)
		if _, isDC := x.L.(*DontCareLit); isDC {
			l = c.checkExpr(x.L, sc, r)
		}
		if !kindsCompatible(l, r) && !kindsCompatible(r, l) {
			c.errf(x.Pos, "cannot compare %v with %v", l, r)
		}
		return core.KindBool
	case TokLt, TokLe, TokGt, TokGe:
		for _, side := range []Expr{x.L, x.R} {
			got := c.checkExpr(side, sc, core.KindFloat)
			if !kindsCompatible(got, core.KindFloat) && got != core.KindString {
				c.errf(side.ExprPos(), "ordering comparison needs numeric or string operands, got %v", got)
			}
		}
		return core.KindBool
	default: // + - * /
		for _, side := range []Expr{x.L, x.R} {
			got := c.checkExpr(side, sc, core.KindFloat)
			if !kindsCompatible(got, core.KindFloat) {
				c.errf(side.ExprPos(), "arithmetic needs numeric operands, got %v", got)
			}
		}
		return core.KindFloat
	}
}
