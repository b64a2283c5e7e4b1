package prairielang

import (
	"prairie/internal/core"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
}

// Parse parses a Prairie specification source into its AST.
func Parse(src string) (*Spec, error) { return parse(src, 0) }

// parse parses the source of the given module (Pos.Module).
func parse(src string, module int) (*Spec, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	for i := range toks {
		toks[i].Pos.Module = module
	}
	p := &parser{toks: toks}
	return p.spec()
}

func (p *parser) cur() Token        { return p.toks[p.pos] }
func (p *parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *parser) atKw(kw string) bool {
	return p.cur().Kind == TokIdent && p.cur().Text == kw
}

func (p *parser) adv() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, errf(p.cur().Pos, "expected %v, found %v", k, p.cur().Kind)
	}
	return p.adv(), nil
}

func (p *parser) ident() (Token, error) {
	if !p.at(TokIdent) {
		return Token{}, errf(p.cur().Pos, "expected identifier, found %v", p.cur().Kind)
	}
	return p.adv(), nil
}

func (p *parser) spec() (*Spec, error) {
	s := &Spec{}
	for !p.at(TokEOF) {
		if !p.at(TokIdent) {
			return nil, errf(p.cur().Pos, "expected declaration, found %v", p.cur().Kind)
		}
		var err error
		switch p.cur().Text {
		case "algebra":
			p.adv()
			var t Token
			if t, err = p.ident(); err == nil {
				s.Name = t.Text
				_, err = p.expect(TokSemi)
			}
		case "property":
			err = p.propDecl(s)
		case "operator":
			err = p.opDecl(s, core.Operator)
		case "algorithm":
			err = p.opDecl(s, core.Algorithm)
		case "helper":
			err = p.helperDecl(s)
		case "trule":
			err = p.trule(s)
		case "irule":
			err = p.irule(s)
		default:
			err = errf(p.cur().Pos, "unknown declaration %q", p.cur().Text)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) typeName() (core.Kind, error) {
	t, err := p.ident()
	if err != nil {
		return core.KindInvalid, err
	}
	k, ok := core.KindByName(t.Text)
	if !ok {
		return core.KindInvalid, errf(t.Pos, "unknown type %q", t.Text)
	}
	return k, nil
}

func (p *parser) propDecl(s *Spec) error {
	pos := p.adv().Pos // "property"
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokColon); err != nil {
		return err
	}
	k, err := p.typeName()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return err
	}
	s.Props = append(s.Props, &PropDecl{Pos: pos, Name: name.Text, Kind: k})
	return nil
}

func (p *parser) opDecl(s *Spec, kind core.OpKind) error {
	pos := p.adv().Pos // "operator" / "algorithm"
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	n, err := p.expect(TokNumber)
	if err != nil {
		return err
	}
	arity := int(n.Num)
	if float64(arity) != n.Num || arity < 1 {
		return errf(n.Pos, "arity must be a positive integer")
	}
	if _, err := p.expect(TokRParen); err != nil {
		return err
	}
	decl := &OpDecl{Pos: pos, Name: name.Text, Kind: kind, Arity: arity}
	if p.atKw("args") {
		p.adv()
		if _, err := p.expect(TokLParen); err != nil {
			return err
		}
		for !p.at(TokRParen) {
			if len(decl.Args) > 0 {
				if _, err := p.expect(TokComma); err != nil {
					return err
				}
			}
			arg, err := p.ident()
			if err != nil {
				return err
			}
			decl.Args = append(decl.Args, arg.Text)
		}
		p.adv() // ')'
	}
	if kind == core.Algorithm && p.atKw("implements") {
		p.adv()
		impl, err := p.ident()
		if err != nil {
			return err
		}
		decl.Implements = impl.Text
	}
	if _, err := p.expect(TokSemi); err != nil {
		return err
	}
	s.Ops = append(s.Ops, decl)
	return nil
}

func (p *parser) helperDecl(s *Spec) error {
	pos := p.adv().Pos // "helper"
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	var params []core.Kind
	for !p.at(TokRParen) {
		if len(params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return err
			}
		}
		k, err := p.typeName()
		if err != nil {
			return err
		}
		params = append(params, k)
	}
	p.adv() // ')'
	if _, err := p.expect(TokColon); err != nil {
		return err
	}
	res, err := p.typeName()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return err
	}
	s.Helpers = append(s.Helpers, &HelperDecl{Pos: pos, Name: name.Text, Params: params, Result: res})
	return nil
}

// pattern := ( IDENT "(" pattern {"," pattern} ")" | VAR ) [":" IDENT]
func (p *parser) pattern() (*PatAST, error) {
	pos := p.cur().Pos
	var node *PatAST
	switch {
	case p.at(TokVar):
		node = &PatAST{Pos: pos, Var: p.adv().Var}
	case p.at(TokIdent):
		name := p.adv()
		node = &PatAST{Pos: pos, Op: name.Text}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		for {
			kid, err := p.pattern()
			if err != nil {
				return nil, err
			}
			node.Kids = append(node.Kids, kid)
			if p.at(TokComma) {
				p.adv()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	default:
		return nil, errf(pos, "expected pattern, found %v", p.cur().Kind)
	}
	if p.at(TokColon) {
		p.adv()
		d, err := p.ident()
		if err != nil {
			return nil, err
		}
		node.Desc = d.Text
	}
	return node, nil
}

func (p *parser) ruleHeader() (name string, lhs, rhs *PatAST, err error) {
	t, err := p.ident()
	if err != nil {
		return "", nil, nil, err
	}
	name = t.Text
	if _, err = p.expect(TokColon); err != nil {
		return
	}
	if lhs, err = p.pattern(); err != nil {
		return
	}
	if _, err = p.expect(TokArrow); err != nil {
		return
	}
	rhs, err = p.pattern()
	return
}

func (p *parser) trule(s *Spec) error {
	pos := p.adv().Pos // "trule"
	name, lhs, rhs, err := p.ruleHeader()
	if err != nil {
		return err
	}
	r := &TRuleDecl{Pos: pos, Name: name, LHS: lhs, RHS: rhs}
	for {
		switch {
		case p.atKw("pretest"):
			p.adv()
			if r.PreTest, err = p.block(); err != nil {
				return err
			}
		case p.atKw("test"):
			p.adv()
			if r.Test, err = p.parenExpr(); err != nil {
				return err
			}
		case p.atKw("posttest"):
			p.adv()
			if r.PostTest, err = p.block(); err != nil {
				return err
			}
		default:
			s.TRules = append(s.TRules, r)
			return nil
		}
	}
}

func (p *parser) irule(s *Spec) error {
	pos := p.adv().Pos // "irule"
	name, lhs, rhs, err := p.ruleHeader()
	if err != nil {
		return err
	}
	r := &IRuleDecl{Pos: pos, Name: name, LHS: lhs, RHS: rhs}
	for {
		switch {
		case p.atKw("test"):
			p.adv()
			if r.Test, err = p.parenExpr(); err != nil {
				return err
			}
		case p.atKw("preopt"):
			p.adv()
			if r.PreOpt, err = p.block(); err != nil {
				return err
			}
		case p.atKw("postopt"):
			p.adv()
			if r.PostOpt, err = p.block(); err != nil {
				return err
			}
		default:
			s.IRules = append(s.IRules, r)
			return nil
		}
	}
}

func (p *parser) parenExpr() (Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) block() ([]*Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var out []*Stmt
	for !p.at(TokRBrace) {
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	p.adv() // '}'
	return out, nil
}

// stmt := IDENT "=" IDENT ";" | IDENT "." IDENT "=" expr ";"
func (p *parser) stmt() (*Stmt, error) {
	dst, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &Stmt{Pos: dst.Pos, Dst: dst.Text}
	if p.at(TokDot) {
		p.adv()
		prop, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Prop = prop.Text
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		if st.RHS, err = p.expr(); err != nil {
			return nil, err
		}
	} else {
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		src, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Src = src.Text
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return st, nil
}

// Expression grammar, lowest precedence first:
// expr := and { "||" and } ; and := cmp { "&&" cmp } ;
// cmp := add [ relop add ] ; add := mul { ("+"|"-") mul } ;
// mul := unary { ("*"|"/") unary } ; unary := ["-"|"!"] primary.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokOrOr) {
		op := p.adv()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{Pos: op.Pos}, Op: TokOrOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokAndAnd) {
		op := p.adv()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{Pos: op.Pos}, Op: TokAndAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		op := p.adv()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Binary{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) || p.at(TokMinus) {
		op := p.adv()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.at(TokStar) || p.at(TokSlash) {
		op := p.adv()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (Expr, error) {
	if p.at(TokMinus) || p.at(TokBang) {
		op := p.adv()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Pos: op.Pos}, Op: op.Kind, X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.adv()
		return &NumLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Num}, nil
	case TokString:
		p.adv()
		return &StrLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Text}, nil
	case TokLParen:
		p.adv()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		switch t.Text {
		case "true", "false":
			p.adv()
			return &BoolLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Text == "true"}, nil
		case "TRUE", "FALSE":
			p.adv()
			return &BoolLit{exprBase: exprBase{Pos: t.Pos}, Val: t.Text == "TRUE"}, nil
		case "DONT_CARE":
			p.adv()
			return &DontCareLit{exprBase: exprBase{Pos: t.Pos}}, nil
		}
		p.adv()
		if p.at(TokDot) {
			p.adv()
			prop, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &Member{exprBase: exprBase{Pos: t.Pos}, Desc: t.Text, Prop: prop.Text}, nil
		}
		if p.at(TokLParen) {
			p.adv()
			call := &Call{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}
			for !p.at(TokRParen) {
				if len(call.Args) > 0 {
					if _, err := p.expect(TokComma); err != nil {
						return nil, err
					}
				}
				arg, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
			}
			p.adv() // ')'
			return call, nil
		}
		return nil, errf(t.Pos, "expected '.' or '(' after identifier %q", t.Text)
	}
	return nil, errf(t.Pos, "expected expression, found %v", t.Kind)
}
