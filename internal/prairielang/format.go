package prairielang

import (
	"fmt"
	"strconv"
	"strings"

	"prairie/internal/core"
)

// Format renders a specification AST back to canonical source text.
// Parse(Format(spec)) is structurally identical to spec.
func Format(s *Spec) string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "algebra %s;\n\n", s.Name)
	}
	for _, p := range s.Props {
		fmt.Fprintf(&b, "property %s : %s;\n", p.Name, p.Kind)
	}
	if len(s.Props) > 0 {
		b.WriteByte('\n')
	}
	for _, o := range s.Ops {
		kw := "operator"
		if o.Kind == core.Algorithm {
			kw = "algorithm"
		}
		fmt.Fprintf(&b, "%s %s(%d)", kw, o.Name, o.Arity)
		if len(o.Args) > 0 {
			fmt.Fprintf(&b, " args(%s)", strings.Join(o.Args, ", "))
		}
		if o.Implements != "" {
			fmt.Fprintf(&b, " implements %s", o.Implements)
		}
		b.WriteString(";\n")
	}
	if len(s.Ops) > 0 {
		b.WriteByte('\n')
	}
	for _, h := range s.Helpers {
		params := make([]string, len(h.Params))
		for i, k := range h.Params {
			params[i] = k.String()
		}
		fmt.Fprintf(&b, "helper %s(%s) : %s;\n", h.Name, strings.Join(params, ", "), h.Result)
	}
	if len(s.Helpers) > 0 {
		b.WriteByte('\n')
	}
	for _, r := range s.TRules {
		fmt.Fprintf(&b, "trule %s:\n  %s => %s\n", r.Name, formatPat(r.LHS), formatPat(r.RHS))
		formatBlock(&b, "pretest", r.PreTest)
		if r.Test != nil {
			fmt.Fprintf(&b, "test (%s)\n", formatExpr(r.Test))
		}
		formatBlock(&b, "posttest", r.PostTest)
		b.WriteByte('\n')
	}
	if len(s.Normalize) > 0 {
		names := make([]string, len(s.Normalize))
		for i, r := range s.Normalize {
			names[i] = r.Name
		}
		fmt.Fprintf(&b, "normalize %s;\n\n", strings.Join(names, ", "))
	}
	for _, r := range s.IRules {
		fmt.Fprintf(&b, "irule %s:\n  %s => %s\n", r.Name, formatPat(r.LHS), formatPat(r.RHS))
		if r.Test != nil {
			fmt.Fprintf(&b, "test (%s)\n", formatExpr(r.Test))
		}
		formatBlock(&b, "preopt", r.PreOpt)
		formatBlock(&b, "postopt", r.PostOpt)
		b.WriteByte('\n')
	}
	return b.String()
}

func formatBlock(b *strings.Builder, kw string, stmts []*Stmt) {
	if len(stmts) == 0 {
		return
	}
	fmt.Fprintf(b, "%s {\n", kw)
	for _, st := range stmts {
		fmt.Fprintf(b, "  %s\n", formatStmt(st))
	}
	b.WriteString("}\n")
}

func formatStmt(st *Stmt) string {
	if st.Prop == "" {
		return fmt.Sprintf("%s = %s;", st.Dst, st.Src)
	}
	return fmt.Sprintf("%s.%s = %s;", st.Dst, st.Prop, formatExpr(st.RHS))
}

func formatPat(p *PatAST) string {
	var s string
	if p.Op == "" {
		s = fmt.Sprintf("?%d", p.Var)
	} else {
		kids := make([]string, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = formatPat(k)
		}
		s = p.Op + "(" + strings.Join(kids, ", ") + ")"
	}
	if p.Desc != "" {
		s += ":" + p.Desc
	}
	return s
}

var binOpText = map[TokKind]string{
	TokEq: "==", TokNe: "!=", TokLt: "<", TokLe: "<=", TokGt: ">",
	TokGe: ">=", TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/",
	TokAndAnd: "&&", TokOrOr: "||",
}

// prec returns the binding strength of a binary operator for
// parenthesization.
func prec(op TokKind) int {
	switch op {
	case TokOrOr:
		return 1
	case TokAndAnd:
		return 2
	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		return 3
	case TokPlus, TokMinus:
		return 4
	default:
		return 5
	}
}

func formatExpr(e Expr) string { return formatExprPrec(e, 0) }

// quote renders s as the lexer reads a string literal: a backslash makes
// the next byte literal, so only a quote, a backslash and a newline (which
// would end the line) take one, and every other byte is written as is.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\\' || c == '\n' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}

func formatExprPrec(e Expr, outer int) string {
	switch x := e.(type) {
	case *NumLit:
		return strconv.FormatFloat(x.Val, 'g', -1, 64)
	case *StrLit:
		return quote(x.Val)
	case *BoolLit:
		if x.Val {
			return "true"
		}
		return "false"
	case *DontCareLit:
		return "DONT_CARE"
	case *Member:
		return x.Desc + "." + x.Prop
	case *Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = formatExpr(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *Unary:
		op := "-"
		if x.Op == TokBang {
			op = "!"
		}
		return op + formatExprPrec(x.X, 5)
	case *Binary:
		p := prec(x.Op)
		// Comparisons do not chain (the parser reads a sum on either
		// side), so a comparison on the left keeps its parentheses too.
		lp := p
		if p == prec(TokEq) {
			lp++
		}
		s := formatExprPrec(x.L, lp) + " " + binOpText[x.Op] + " " + formatExprPrec(x.R, p+1)
		if p < outer {
			return "(" + s + ")"
		}
		return s
	}
	return "?"
}
