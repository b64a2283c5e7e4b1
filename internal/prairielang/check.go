package prairielang

import (
	"fmt"
	"slices"

	"prairie/internal/core"
)

// checker resolves a parsed specification against its declared algebra
// and type-checks every rule: patterns (operation names, arities,
// descriptor scoping), statements (only right-hand-side descriptors may
// be assigned, §2.3), and expressions (property kinds, helper
// signatures).
type checker struct {
	spec    *Spec
	alg     *core.Algebra
	helpers map[string]*HelperDecl
	errs    []error
}

func newChecker(spec *Spec) *checker {
	name := spec.Name
	if name == "" {
		name = "prairie"
	}
	return &checker{spec: spec, alg: core.NewAlgebra(name), helpers: map[string]*HelperDecl{}}
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
		c.alg.Props.Define(p.Name, p.Kind)
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

// ruleScope tracks a rule's descriptor names — per side for statement
// checking, and by frame slot for the code the compiler emits.
type ruleScope struct {
	frame *core.Frame
	lhs   map[string]bool
	rhs   map[string]bool
	// trule marks a T-rule: its left side is matched against the memo's
	// own descriptors, so a name the left side binds is read-only even
	// where the right side repeats it.
	trule bool
}

// scopeOf lays out the rule's frame (recording slots in the patterns)
// and returns its scope.
func scopeOf(lhs, rhs *core.PatNode, trule bool) ruleScope {
	s := ruleScope{frame: core.NewFrame(lhs, rhs), lhs: map[string]bool{}, rhs: map[string]bool{}, trule: trule}
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

// checkStmts validates a statement block and returns its write hints in
// core.ActionHints format ("D.prop", "D.*").
func (c *checker) checkStmts(stmts []*Stmt, sc ruleScope) []string {
	hints := make([]string, 0, len(stmts))
	for _, st := range stmts {
		if !sc.known(st.Dst) {
			c.errf(st.Pos, "descriptor %q is not bound by the rule's patterns", st.Dst)
			continue
		}
		if sc.lhs[st.Dst] && (sc.trule || !sc.rhs[st.Dst]) {
			c.errf(st.Pos, "descriptor %s is on the rule's left side; left-hand-side descriptors are never changed (§2.3)", st.Dst)
		}
		st.dst = sc.slot(st.Dst)
		if st.Prop == "" {
			if !sc.known(st.Src) {
				c.errf(st.Pos, "descriptor %q is not bound by the rule's patterns", st.Src)
			}
			st.src = sc.slot(st.Src)
			hints = append(hints, st.Dst+".*")
			continue
		}
		id, ok := c.alg.Props.Lookup(st.Prop)
		if !ok {
			c.errf(st.Pos, "unknown property %q", st.Prop)
			continue
		}
		st.id = id
		want := c.alg.Props.At(id).Kind
		got := c.checkExpr(st.RHS, sc, want)
		if !kindsCompatible(got, want) {
			c.errf(st.Pos, "cannot assign %v to %s.%s (%v)", got, st.Dst, st.Prop, want)
		}
		hints = append(hints, st.Dst+"."+st.Prop)
	}
	return hints
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
