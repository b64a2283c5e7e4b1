package prairielang

import "prairie/internal/core"

// Spec is a parsed Prairie specification.
type Spec struct {
	Name    string // algebra name
	Props   []*PropDecl
	Ops     []*OpDecl
	Helpers []*HelperDecl
	TRules  []*TRuleDecl
	IRules  []*IRuleDecl
	// Normalize names the T-rules the specification declares normalizing
	// ("normalize r1, r2;"): a back end rewrites the query with them to a
	// fixpoint before its search, and does not explore them.
	Normalize []*RuleRef
}

// RuleRef is a rule named in a declaration, at the name's position.
type RuleRef struct {
	Pos  Pos
	Name string
}

// PropDecl declares a descriptor property.
type PropDecl struct {
	Pos  Pos
	Name string
	Kind core.Kind
}

// OpDecl declares an operator or algorithm.
type OpDecl struct {
	Pos        Pos
	Name       string
	Kind       core.OpKind
	Arity      int
	Implements string // optional, algorithms only (documentation)
	// Args names the operation's additional parameters (its identity
	// properties in duplicate detection): "operator JOIN(2)
	// args(join_predicate);".
	Args []string
}

// HelperDecl declares a helper function's signature; its implementation
// is supplied in Go when the specification is compiled.
type HelperDecl struct {
	Pos    Pos
	Name   string
	Params []core.Kind
	Result core.Kind
}

// PatAST is a parsed rule pattern node.
type PatAST struct {
	Pos  Pos
	Op   string // "" for a variable leaf
	Var  int
	Desc string
	Kids []*PatAST
}

// TRuleDecl is a parsed T-rule.
type TRuleDecl struct {
	Pos      Pos
	Name     string
	LHS, RHS *PatAST
	PreTest  []*Stmt
	Test     Expr // nil means TRUE
	PostTest []*Stmt
}

// IRuleDecl is a parsed I-rule.
type IRuleDecl struct {
	Pos      Pos
	Name     string
	LHS, RHS *PatAST
	Test     Expr // nil means TRUE
	PreOpt   []*Stmt
	PostOpt  []*Stmt
}

// Stmt is a descriptor assignment statement: either a whole-descriptor
// copy ("D5 = D3;") or a property assignment ("D5.cost = ...;").
type Stmt struct {
	Pos  Pos
	Dst  string // descriptor variable
	Prop string // "" for whole-descriptor copy
	// Src names the source descriptor for a copy; RHS is the expression
	// for a property assignment.
	Src string
	RHS Expr
	// dst and src are the descriptors' frame slots, id the assigned
	// property and kind its kind, resolved during checking.
	dst, src int
	id       core.PropID
	kind     core.Kind
}

// Expr is an expression AST node. Each implementation records its
// source position and, after checking, its result kind.
type Expr interface {
	ExprPos() Pos
	// Kind returns the checked result kind (valid after Check).
	Kind() core.Kind
}

type exprBase struct {
	Pos  Pos
	kind core.Kind
}

func (e *exprBase) ExprPos() Pos    { return e.Pos }
func (e *exprBase) Kind() core.Kind { return e.kind }

// NumLit is a numeric literal.
type NumLit struct {
	exprBase
	Val float64
}

// StrLit is a string literal.
type StrLit struct {
	exprBase
	Val string
}

// BoolLit is true or false.
type BoolLit struct {
	exprBase
	Val bool
}

// DontCareLit is the DONT_CARE literal; its kind is inferred from
// context (order in every rule the paper shows).
type DontCareLit struct {
	exprBase
}

// Member is a descriptor property access "D3.cost".
type Member struct {
	exprBase
	Desc string
	Prop string
	// ID and the descriptor's frame slot are resolved during checking.
	ID   core.PropID
	slot int
}

// Call is a helper-function call.
type Call struct {
	exprBase
	Name string
	Args []Expr
}

// Unary is negation ("-" or "!").
type Unary struct {
	exprBase
	Op TokKind
	X  Expr
}

// Binary is an arithmetic, comparison, or boolean operation.
type Binary struct {
	exprBase
	Op   TokKind
	L, R Expr
}
