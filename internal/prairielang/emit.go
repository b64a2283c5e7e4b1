package prairielang

import (
	"math"
	"strings"

	"prairie/internal/core"
)

// This file is the code generator: it turns the checked statement blocks
// and tests of one rule into Go closures over the rule's descriptor
// frame. Whatever the specification decides is decided here, once —
// descriptor slots, property ids, helper function pointers, literals,
// which arithmetic stays unboxed — so a firing runs straight-line code.
// The closures keep no state between calls (a rule set is shared by
// concurrent optimizers); what a firing has to remember lives in its
// core.Binding.

type (
	valFn  func(*core.Binding) core.Value
	numFn  func(*core.Binding) float64
	boolFn func(*core.Binding) bool
)

// emitter generates the actions of one rule.
type emitter struct {
	helpers map[string]HelperImpl
	frame   *core.Frame
}

// action compiles a statement block; nil for an empty one.
func (em *emitter) action(stmts []*Stmt) core.Action {
	if len(stmts) == 0 {
		return nil
	}
	steps := make([]core.Action, len(stmts))
	for i, st := range stmts {
		dst, src, id := st.dst, st.src, st.id
		if st.Prop == "" {
			steps[i] = func(b *core.Binding) { b.Slot(dst).CopyFrom(b.Slot(src)) }
			continue
		}
		rhs := em.assigned(st.RHS, st.kind)
		steps[i] = func(b *core.Binding) { b.Slot(dst).Set(id, rhs(b)) }
	}
	f := em.frame
	return func(b *core.Binding) {
		b.Enter(f)
		for _, step := range steps {
			step(b)
		}
	}
}

// test compiles a rule's test; nil for none (TRUE).
func (em *emitter) test(e Expr) core.Test {
	if e == nil {
		return nil
	}
	f, t := em.frame, em.truth(e)
	return func(b *core.Binding) bool {
		b.Enter(f)
		return t(b)
	}
}

func isNumericKind(k core.Kind) bool {
	return k == core.KindFloat || k == core.KindCost || k == core.KindInt
}

func constant(v core.Value) valFn { return func(*core.Binding) core.Value { return v } }

// val compiles e to a closure yielding a core.Value.
func (em *emitter) val(e Expr) valFn {
	switch x := e.(type) {
	case *NumLit:
		return constant(core.Float(x.Val))
	case *StrLit:
		return constant(core.Str(x.Val))
	case *BoolLit:
		return constant(core.Bool(x.Val))
	case *DontCareLit:
		return constant(core.DefaultValue(x.Kind()))
	case *Member:
		slot, id := x.slot, x.ID
		return func(b *core.Binding) core.Value { return b.Slot(slot).Get(id) }
	case *Call:
		return em.call(x)
	}
	// Operators: arithmetic yields a float, everything else a boolean.
	if e.Kind() == core.KindBool {
		t := em.truth(e)
		return func(b *core.Binding) core.Value { return core.Bool(t(b)) }
	}
	n := em.num(e)
	return func(b *core.Binding) core.Value { return core.Float(n(b)) }
}

// assigned compiles the right side of an assignment to a property of
// kind k. A number or arithmetic assigned to a cost or an int is boxed
// once, as k, where val would box a float that Set coerces and boxes
// again.
func (em *emitter) assigned(e Expr, k core.Kind) valFn {
	if k != core.KindCost && k != core.KindInt {
		return em.val(e)
	}
	box := func(f float64) core.Value {
		if k == core.KindCost {
			return core.Cost(f)
		}
		return core.Int(f)
	}
	switch x := e.(type) {
	case *NumLit:
		return constant(box(x.Val))
	case *Unary, *Binary: // arithmetic: the checker admits nothing else here
		n := em.num(e)
		return func(b *core.Binding) core.Value { return box(n(b)) }
	}
	return em.val(e)
}

// call compiles a helper call. Its arguments are evaluated into the call
// site's own range of Binding.Args, so a call allocates no argument
// slice and nested calls do not overwrite one another.
func (em *emitter) call(x *Call) valFn {
	fn, name, pos := em.helpers[x.Name], x.Name, x.Pos
	args := make([]valFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = em.val(a)
	}
	off, end := em.frame.Args, em.frame.Args+len(args)
	em.frame.Args = end
	return func(b *core.Binding) core.Value {
		a := b.Args[off:end:end]
		for i, arg := range args {
			a[i] = arg(b)
		}
		v, err := fn(a)
		if err != nil {
			evalPanic(pos, "helper %s: %v", name, err)
		}
		return v
	}
}

// num compiles a numeric expression to unboxed float arithmetic.
func (em *emitter) num(e Expr) numFn {
	switch x := e.(type) {
	case *NumLit:
		v := x.Val
		return func(*core.Binding) float64 { return v }
	case *Unary: // the checker admits only - on numbers
		f := em.num(x.X)
		return func(b *core.Binding) float64 { return -f(b) }
	case *Binary: // the checker admits only arithmetic on numbers
		l, r := em.num(x.L), em.num(x.R)
		switch x.Op {
		case TokPlus:
			return func(b *core.Binding) float64 { return l(b) + r(b) }
		case TokMinus:
			return func(b *core.Binding) float64 { return l(b) - r(b) }
		case TokStar:
			return func(b *core.Binding) float64 { return l(b) * r(b) }
		}
		return func(b *core.Binding) float64 {
			n, d := l(b), r(b)
			if d == 0 {
				return math.Inf(1)
			}
			return n / d
		}
	}
	v, pos := em.val(e), e.ExprPos()
	return func(b *core.Binding) float64 { return toFloat(v(b), pos) }
}

// truth compiles a boolean expression.
func (em *emitter) truth(e Expr) boolFn {
	switch x := e.(type) {
	case *Unary: // the checker admits only ! on booleans
		f := em.truth(x.X)
		return func(b *core.Binding) bool { return !f(b) }
	case *Binary:
		if x.Op != TokAndAnd && x.Op != TokOrOr {
			return em.compare(x)
		}
		l, r := em.truth(x.L), em.truth(x.R)
		if x.Op == TokAndAnd {
			return func(b *core.Binding) bool { return l(b) && r(b) }
		}
		return func(b *core.Binding) bool { return l(b) || r(b) }
	}
	v, pos := em.val(e), e.ExprPos()
	return func(b *core.Binding) bool {
		got := v(b)
		bv, ok := got.(core.Bool)
		if !ok {
			evalPanic(pos, "expected a boolean, got %v", got.Kind())
		}
		return bool(bv)
	}
}

// compare compiles a comparison: on unboxed floats when both sides are
// numbers, on values otherwise.
func (em *emitter) compare(x *Binary) boolFn {
	op, pos := x.Op, x.Pos
	equality, want := op == TokEq || op == TokNe, op == TokEq
	if isNumericKind(x.L.Kind()) && isNumericKind(x.R.Kind()) {
		l, r := em.num(x.L), em.num(x.R)
		if equality {
			return func(b *core.Binding) bool { return (l(b) == r(b)) == want }
		}
		return func(b *core.Binding) bool { return cmpOrder(op, cmpFloat(l(b), r(b))) }
	}
	l, r := em.val(x.L), em.val(x.R)
	if equality {
		return func(b *core.Binding) bool { return valuesEqual(l(b), r(b)) == want }
	}
	return func(b *core.Binding) bool { return orderValues(op, l(b), r(b), pos) }
}

// ---------------------------------------------------------------------------
// Run-time support of the generated closures.

// evalError marks a runtime failure inside a compiled rule action; it is
// raised by panic because core.Action has no error channel, and a
// failing action is a specification bug.
type evalError struct{ err error }

func evalPanic(pos Pos, format string, args ...interface{}) {
	panic(evalError{errf(pos, format, args...)})
}

// valuesEqual compares across the numeric kinds, falling back to Value
// equality for everything else.
func valuesEqual(l, r core.Value) bool {
	if isNumericKind(l.Kind()) && isNumericKind(r.Kind()) {
		return toFloat(l, Pos{}) == toFloat(r, Pos{})
	}
	return l.Equal(r)
}

// orderValues orders two strings or two numbers.
func orderValues(op TokKind, l, r core.Value, pos Pos) bool {
	if ls, ok := l.(core.Str); ok {
		rs, ok := r.(core.Str)
		if !ok {
			evalPanic(pos, "cannot order %v against %v", l.Kind(), r.Kind())
		}
		return cmpOrder(op, strings.Compare(string(ls), string(rs)))
	}
	return cmpOrder(op, cmpFloat(toFloat(l, pos), toFloat(r, pos)))
}

func toFloat(v core.Value, pos Pos) float64 {
	switch x := v.(type) {
	case core.Float:
		return float64(x)
	case core.Cost:
		return float64(x)
	case core.Int:
		return float64(x)
	}
	evalPanic(pos, "numeric value required, got %v", v.Kind())
	return 0
}

// cmpFloat is a three-way comparison; NaN orders as equal.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpOrder reports whether ordering op holds for three-way result c.
func cmpOrder(op TokKind, c int) bool {
	switch op {
	case TokLt:
		return c < 0
	case TokLe:
		return c <= 0
	case TokGt:
		return c > 0
	default:
		return c >= 0
	}
}
