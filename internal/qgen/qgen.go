// Package qgen generates the evaluation workloads of Section 4.3 of the
// paper: the four expression families E1–E4 (Figure 9) instantiated as
// N-way join queries over synthetic catalogs, and the eight queries
// Q1–Q8 of Table 5 (each expression with and without indices).
//
//	E1: JOIN chain over RET(Ci)                      — simple retrieval+join
//	E2: JOIN chain over MAT(RET(Ci))                 — materialize before join
//	E3: SELECT over E1                               — selection added
//	E4: SELECT over E2                               — all operators
//
// Join predicates form a linear query graph (Ci.a = Ci+1.a); selections
// are conjunctions of equality terms bc_i = const_i with const_i = i,
// exactly as the paper describes. Per experiment point, five catalog
// instances with varied cardinalities are generated from distinct seeds.
package qgen

import (
	"fmt"
	"strings"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/oodb"
)

// ExprKind selects one of the paper's four expression families.
type ExprKind int

// Expression families of Figure 9.
const (
	E1 ExprKind = iota + 1
	E2
	E3
	E4
)

func (e ExprKind) String() string { return fmt.Sprintf("E%d", int(e)) }

// ParseKind maps a family name ("E1".."E4", case-insensitive) back to
// its ExprKind — the inverse of String, used by wire protocols that
// name query families in requests.
func ParseKind(s string) (ExprKind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "E1":
		return E1, nil
	case "E2":
		return E2, nil
	case "E3":
		return E3, nil
	case "E4":
		return E4, nil
	}
	return 0, fmt.Errorf("qgen: unknown expression family %q (want E1..E4)", s)
}

// HasMat reports whether the family materializes an attribute per class.
func (e ExprKind) HasMat() bool { return e == E2 || e == E4 }

// HasSelect reports whether the family has a root selection.
func (e ExprKind) HasSelect() bool { return e == E3 || e == E4 }

// Query identifies one of the paper's eight queries (Table 5).
type Query struct {
	Name    string
	Expr    ExprKind
	Indexed bool
}

// Queries returns Q1..Q8 exactly as in Table 5.
func Queries() []Query {
	return []Query{
		{"Q1", E1, false}, {"Q2", E1, true},
		{"Q3", E2, false}, {"Q4", E2, true},
		{"Q5", E3, false}, {"Q6", E3, true},
		{"Q7", E4, false}, {"Q8", E4, true},
	}
}

// InstanceSeeds returns the seeds of the five catalog instances averaged
// per experiment point ("we varied the cardinalities of the base classes
// 5 times", §4.3).
func InstanceSeeds() []int64 { return []int64{101, 202, 303, 404, 505} }

// Catalog generates a synthetic catalog for an n-way query instance.
func Catalog(n int, seed int64, indexed bool) *catalog.Catalog {
	return catalog.Generate(catalog.DefaultGen(n, seed, indexed))
}

// Graph selects the query-graph shape. The paper's experiments use
// linear graphs; star graphs are its stated future work ("In the future,
// we will experiment with non-linear (e.g., star) query graphs").
type Graph int

// Query-graph shapes.
const (
	// Linear joins Ci to Ci+1 (a chain).
	Linear Graph = iota
	// Star joins every class to the hub C1.
	Star
)

// Build constructs the initialized operator tree for the expression
// family with n classes over the optimizer's catalog, using a linear
// query graph. n counts classes; the tree has n-1 JOINs ("an N-way join
// query").
func Build(o *oodb.Opt, e ExprKind, n int) (*core.Expr, error) {
	return BuildGraph(o, e, n, Linear)
}

// BuildGraph is Build with an explicit query-graph shape.
func BuildGraph(o *oodb.Opt, e ExprKind, n int, g Graph) (*core.Expr, error) {
	if n < 1 {
		return nil, fmt.Errorf("qgen: need at least one class, got %d", n)
	}
	cur, err := retOf(o, 1, e.HasMat())
	if err != nil {
		return nil, err
	}
	for i := 2; i <= n; i++ {
		next, err := retOf(o, i, e.HasMat())
		if err != nil {
			return nil, err
		}
		from := i - 1
		if g == Star {
			from = 1 // every predicate connects to the hub C1
		}
		pred := core.EqAttr(
			o.Cat.Sym(catalog.ClassName(from), "a"),
			o.Cat.Sym(catalog.ClassName(i), "a"))
		cur = joinOf(o, cur, next, pred)
	}
	if e.HasSelect() {
		cur = selectOf(o, cur, selectionPred(o.Cat, n))
	}
	return cur, nil
}

// selectionPred builds the paper's root selection: the conjunction of
// bc_i = const_i over every class, const_i arbitrarily i.
func selectionPred(cat *catalog.Catalog, n int) *core.Pred {
	terms := make([]*core.Pred, n)
	for i := 1; i <= n; i++ {
		terms[i-1] = core.EqConst(cat.Sym(catalog.ClassName(i), "b"), core.Int(int64(i)))
	}
	return oodb.CanonAnd(terms...)
}

// retOf builds RET(Ci), wrapped in MAT when the family materializes.
func retOf(o *oodb.Opt, i int, mat bool) (*core.Expr, error) {
	name := catalog.ClassName(i)
	cl, ok := o.Cat.Class(name)
	if !ok {
		return nil, fmt.Errorf("qgen: class %s not in catalog", name)
	}
	leafD := o.Alg.NewDesc()
	leafD.Set(o.AT, cl.AttrSet())
	leafD.SetFloat(o.NR, cl.Card)
	leafD.SetFloat(o.TS, cl.TupleSize)
	leafD.Set(o.IX, cl.IndexSet())
	leafD.Set(o.C, core.Cost(0))
	leaf := core.NewLeaf(name, leafD)

	retD := leafD.Clone()
	retD.Unset(o.IX)
	retD.Set(o.SP, core.TruePred)
	cur := core.NewNode(o.RET, retD, leaf)

	if mat {
		ref := o.Cat.Sym(name, "ref")
		matD := o.Alg.NewDesc()
		matD.Set(o.MA, core.Attrs{ref})
		matD.Set(o.AT, retD.AttrList(o.AT).Union(o.MatTargetAttrs(core.Attrs{ref})))
		matD.SetFloat(o.NR, retD.Float(o.NR))
		matD.SetFloat(o.TS, retD.Float(o.TS)+o.MatTargetSize(core.Attrs{ref}))
		cur = core.NewNode(o.MAT, matD, cur)
	}
	return cur, nil
}

func joinOf(o *oodb.Opt, l, r *core.Expr, pred *core.Pred) *core.Expr {
	d := o.Alg.NewDesc()
	d.Set(o.JP, pred)
	d.Set(o.AT, l.D.AttrList(o.AT).Union(r.D.AttrList(o.AT)))
	d.SetFloat(o.NR, o.Cat.JoinCard(l.D.Float(o.NR), r.D.Float(o.NR), pred))
	d.SetFloat(o.TS, l.D.Float(o.TS)+r.D.Float(o.TS))
	return core.NewNode(o.JOIN, d, l, r)
}

func selectOf(o *oodb.Opt, in *core.Expr, pred *core.Pred) *core.Expr {
	d := o.Alg.NewDesc()
	d.Set(o.SP, pred)
	d.Set(o.AT, in.D.AttrList(o.AT))
	d.SetFloat(o.NR, o.Cat.SelectCard(in.D.Float(o.NR), pred))
	d.SetFloat(o.TS, in.D.Float(o.TS))
	return core.NewNode(o.SELECT, d, in)
}
