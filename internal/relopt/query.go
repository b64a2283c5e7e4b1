package relopt

import (
	"fmt"

	"prairie/internal/core"
)

// QuerySpec describes a relational test query: an N-way join over base
// relations with linear equality join predicates on attribute "a",
// optional equality selections on attribute "b", and an optional
// requested output order.
type QuerySpec struct {
	Relations []string
	// Select adds "Ci.b = i" selection predicates on every RET.
	Select bool
	// OrderBy requests the output sorted on the given attribute
	// (zero value: no requirement).
	OrderBy core.Attr
}

// Leaf builds an initialized stored-file leaf from the catalog: its
// descriptor carries attributes, cardinality, tuple size, index metadata
// and zero cost (§2.2: annotations known before optimization are computed
// when the operator tree is initialized).
func (o *Opt) Leaf(class string) *core.Expr {
	cl := o.Cat.MustClass(class)
	d := o.Alg.NewDesc()
	d.Set(o.AT, cl.AttrSet())
	d.SetFloat(o.NR, cl.Card)
	d.SetFloat(o.TS, cl.TupleSize)
	d.Set(o.IX, cl.IndexSet())
	d.Set(o.C, core.Cost(0))
	return core.NewLeaf(class, d)
}

// Ret wraps a leaf in a RET node with the given selection predicate,
// estimating the output cardinality.
func (o *Opt) Ret(leaf *core.Expr, sel *core.Pred) *core.Expr {
	d := leaf.D.Clone()
	d.Set(o.SP, sel)
	d.SetFloat(o.NR, o.Cat.SelectCard(leaf.D.Float(o.NR), sel))
	d.Set(o.C, core.Cost(0))
	d.Unset(o.IX) // indexes describe the stored file, not the stream
	return core.NewNode(o.RET, d, leaf)
}

// Join builds an initialized JOIN node over two subtrees.
func (o *Opt) Join(l, r *core.Expr, pred *core.Pred) *core.Expr {
	d := o.Alg.NewDesc()
	d.Set(o.AT, l.D.AttrList(o.AT).Union(r.D.AttrList(o.AT)))
	d.Set(o.JP, pred)
	d.SetFloat(o.NR, o.Cat.JoinCard(l.D.Float(o.NR), r.D.Float(o.NR), pred))
	d.SetFloat(o.TS, l.D.Float(o.TS)+r.D.Float(o.TS))
	return core.NewNode(o.JOIN, d, l, r)
}

// Sort wraps a subtree in a SORT node requesting the given order.
func (o *Opt) Sort(in *core.Expr, by core.Attr) *core.Expr {
	d := in.D.Clone()
	d.Set(o.Ord, core.OrderBy(by))
	return core.NewNode(o.SORT, d, in)
}

// Build constructs the initialized operator tree for a query spec: a
// left-deep linear join chain, as in the paper's experiments.
func (o *Opt) Build(q QuerySpec) (*core.Expr, error) {
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("relopt: query needs at least one relation")
	}
	mk := func(i int) *core.Expr {
		name := q.Relations[i]
		sel := core.TruePred
		if q.Select {
			sel = core.EqConst(o.Cat.Sym(name, "b"), core.Int(int64(i+1)))
		}
		return o.Ret(o.Leaf(name), sel)
	}
	cur := mk(0)
	for i := 1; i < len(q.Relations); i++ {
		pred := core.EqAttr(o.Cat.Sym(q.Relations[i-1], "a"), o.Cat.Sym(q.Relations[i], "a"))
		cur = o.Join(cur, mk(i), pred)
	}
	return cur, nil
}

// Requirement returns the physical-property requirement of a query spec
// (the requested output order, if any).
func (o *Opt) Requirement(q QuerySpec) *core.Descriptor {
	req := o.Alg.NewDesc()
	if q.OrderBy != (core.Attr{}) {
		req.Set(o.Ord, core.OrderBy(q.OrderBy))
	}
	return req
}
