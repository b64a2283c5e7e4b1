// Package prairielang implements the Prairie rule-specification
// language: a textual format for Prairie rule sets in the notation of
// the paper (T-rules with pre-test/test/post-test sections, I-rules with
// test/pre-opt/post-opt sections, descriptor assignment statements and
// helper-function calls). The paper's P2V front end is 4500 lines of
// flex and bison; this package is its Go counterpart — a hand-written
// lexer, a recursive-descent parser, a type checker against the declared
// algebra, and a compiler that turns rule actions into Go closures over
// a per-rule descriptor frame (emit.go).
//
// A specification looks like:
//
//	algebra relational;
//
//	property tuple_order : order;
//	property cost : cost;
//
//	operator JOIN(2);
//	algorithm Nested_loops(2) implements JOIN;
//
//	helper cardinality(float, float, pred) : float;
//
//	irule join_nested_loops:
//	  JOIN(?1:D1, ?2:D2):D3 => Nested_loops(?1:D4, ?2):D5
//	preopt {
//	  D5 = D3;
//	  D4 = D1;
//	  D4.tuple_order = D3.tuple_order;
//	}
//	postopt {
//	  D5.cost = D4.cost + D4.num_records * D2.cost;
//	}
package prairielang

import "fmt"

// TokKind enumerates token kinds.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokVar    // ?1, ?2, ...
	TokLParen // (
	TokRParen // )
	TokLBrace // {
	TokRBrace // }
	TokComma  // ,
	TokSemi   // ;
	TokColon  // :
	TokDot    // .
	TokAssign // =
	TokArrow  // =>
	TokEq     // ==
	TokNe     // !=
	TokLt     // <
	TokLe     // <=
	TokGt     // >
	TokGe     // >=
	TokPlus   // +
	TokMinus  // -
	TokStar   // *
	TokSlash  // /
	TokAndAnd // &&
	TokOrOr   // ||
	TokBang   // !
)

var tokNames = map[TokKind]string{
	TokEOF: "end of input", TokIdent: "identifier", TokNumber: "number",
	TokString: "string", TokVar: "variable", TokLParen: "'('",
	TokRParen: "')'", TokLBrace: "'{'", TokRBrace: "'}'", TokComma: "','",
	TokSemi: "';'", TokColon: "':'", TokDot: "'.'", TokAssign: "'='",
	TokArrow: "'=>'", TokEq: "'=='", TokNe: "'!='", TokLt: "'<'",
	TokLe: "'<='", TokGt: "'>'", TokGe: "'>='", TokPlus: "'+'",
	TokMinus: "'-'", TokStar: "'*'", TokSlash: "'/'", TokAndAnd: "'&&'",
	TokOrOr: "'||'", TokBang: "'!'",
}

func (k TokKind) String() string {
	if n, ok := tokNames[k]; ok {
		return n
	}
	return fmt.Sprintf("token(%d)", k)
}

// Pos is a source position. Module numbers the source among the modules
// ParseAndCompileAll composes; positions in the first module, or in a
// source compiled alone, render without it.
type Pos struct {
	Module, Line, Col int
}

func (p Pos) String() string {
	if p.Module > 1 {
		return fmt.Sprintf("module%d:%d:%d", p.Module, p.Line, p.Col)
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Num  float64 // for TokNumber
	Var  int     // for TokVar
	Pos  Pos
}

// Error is a positioned specification error.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
