package prairielang

import (
	"fmt"
	"math"
	"strings"

	"prairie/internal/core"
)

// This file keeps the tree-walking interpreter the compiler (emit.go)
// replaced. It evaluates a checked rule directly from its AST, by name
// and with every value boxed, and survives as the oracle of the
// differential tests: compiled actions must behave exactly like it. It
// alone runs a T-rule as written; the compiler builds only its cut.

// RunWhole runs a checked T-rule as written — its pre-test statements,
// its test, and its post-test statements whatever the test's verdict —
// and returns the verdict.
func RunWhole(d *TRuleDecl, impls map[string]HelperImpl, b *core.Binding) bool {
	execStmts(d.PreTest, b, impls)
	ok := d.Test == nil || evalBool(d.Test, b, impls)
	execStmts(d.PostTest, b, impls)
	return ok
}

// execStmts runs a checked statement block against a binding.
func execStmts(stmts []*Stmt, b *core.Binding, impls map[string]HelperImpl) {
	for _, st := range stmts {
		if st.Prop == "" {
			b.D(st.Dst).CopyFrom(b.D(st.Src))
			continue
		}
		id, ok := b.D(st.Dst).Props().Lookup(st.Prop)
		if !ok {
			evalPanic(st.Pos, "unknown property %q", st.Prop)
		}
		v := evalExpr(st.RHS, b, impls)
		b.D(st.Dst).Set(id, v)
	}
}

// evalBool evaluates a checked test expression.
func evalBool(e Expr, b *core.Binding, impls map[string]HelperImpl) bool {
	v := evalExpr(e, b, impls)
	bv, ok := v.(core.Bool)
	if !ok {
		evalPanic(e.ExprPos(), "test did not evaluate to a boolean (got %v)", v.Kind())
	}
	return bool(bv)
}

// evalExpr evaluates a checked expression against a binding.
func evalExpr(e Expr, b *core.Binding, impls map[string]HelperImpl) core.Value {
	switch x := e.(type) {
	case *NumLit:
		return core.Float(x.Val)
	case *StrLit:
		return core.Str(x.Val)
	case *BoolLit:
		return core.Bool(x.Val)
	case *DontCareLit:
		return core.DefaultValue(x.Kind())
	case *Member:
		return b.D(x.Desc).Get(x.ID)
	case *Call:
		args := make([]core.Value, len(x.Args))
		for i, a := range x.Args {
			args[i] = evalExpr(a, b, impls)
		}
		v, err := impls[x.Name](args)
		if err != nil {
			evalPanic(x.Pos, "helper %s: %v", x.Name, err)
		}
		return v
	case *Unary:
		v := evalExpr(x.X, b, impls)
		if x.Op == TokBang {
			bv, ok := v.(core.Bool)
			if !ok {
				evalPanic(x.Pos, "'!' on non-boolean %v", v.Kind())
			}
			return core.Bool(!bv)
		}
		return core.Float(-toFloat(v, x.Pos))
	case *Binary:
		return evalBinary(x, b, impls)
	}
	panic(evalError{fmt.Errorf("prairielang: unknown expression %T", e)})
}

func evalBinary(x *Binary, b *core.Binding, impls map[string]HelperImpl) core.Value {
	switch x.Op {
	case TokAndAnd:
		l, ok := evalExpr(x.L, b, impls).(core.Bool)
		if !ok {
			evalPanic(x.Pos, "'&&' on non-boolean")
		}
		if !l {
			return core.Bool(false)
		}
		r, ok := evalExpr(x.R, b, impls).(core.Bool)
		if !ok {
			evalPanic(x.Pos, "'&&' on non-boolean")
		}
		return r
	case TokOrOr:
		l, ok := evalExpr(x.L, b, impls).(core.Bool)
		if !ok {
			evalPanic(x.Pos, "'||' on non-boolean")
		}
		if l {
			return core.Bool(true)
		}
		r, ok := evalExpr(x.R, b, impls).(core.Bool)
		if !ok {
			evalPanic(x.Pos, "'||' on non-boolean")
		}
		return r
	}
	l := evalExpr(x.L, b, impls)
	r := evalExpr(x.R, b, impls)
	switch x.Op {
	case TokEq:
		return core.Bool(valuesEqual(l, r))
	case TokNe:
		return core.Bool(!valuesEqual(l, r))
	case TokLt, TokLe, TokGt, TokGe:
		if ls, ok := l.(core.Str); ok {
			rs, ok := r.(core.Str)
			if !ok {
				evalPanic(x.Pos, "cannot order %v against %v", l.Kind(), r.Kind())
			}
			return core.Bool(cmpOrder(x.Op, strCmp(string(ls), string(rs))))
		}
		lf, rf := toFloat(l, x.Pos), toFloat(r, x.Pos)
		switch {
		case lf < rf:
			return core.Bool(cmpOrder(x.Op, -1))
		case lf > rf:
			return core.Bool(cmpOrder(x.Op, 1))
		default:
			return core.Bool(cmpOrder(x.Op, 0))
		}
	case TokPlus:
		return core.Float(toFloat(l, x.Pos) + toFloat(r, x.Pos))
	case TokMinus:
		return core.Float(toFloat(l, x.Pos) - toFloat(r, x.Pos))
	case TokStar:
		return core.Float(toFloat(l, x.Pos) * toFloat(r, x.Pos))
	case TokSlash:
		d := toFloat(r, x.Pos)
		if d == 0 {
			return core.Float(math.Inf(1))
		}
		return core.Float(toFloat(l, x.Pos) / d)
	}
	evalPanic(x.Pos, "unknown operator")
	return nil
}

func isNumeric(v core.Value) bool { return isNumericKind(v.Kind()) }

func strCmp(a, b string) int { return strings.Compare(a, b) }
