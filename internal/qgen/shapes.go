package qgen

import (
	"fmt"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/oodb"
)

// Pattern-directed shapes: expression forms the paper's E1–E4 families
// never produce but specific OODB rules need to fire (the per-rule
// verifier in internal/rulecheck matches rules against generated trees,
// so every rule needs at least one generator that can reach its LHS).

// BuildRefJoin builds JOIN(RET(Ci), RET(Si)) joined on the pointer
// equality Ci.ref = Si.id — the form join_to_mat rewrites into MAT(?1).
// E1–E4 join classes on their shared "a" attribute, so the
// pointer-equality join form never appears in them.
func BuildRefJoin(o *oodb.Opt, i int) (*core.Expr, error) {
	left, err := retOf(o, i, false)
	if err != nil {
		return nil, err
	}
	right, err := retOfClass(o, catalog.SubClassName(i))
	if err != nil {
		return nil, err
	}
	pred := core.EqAttr(
		o.Cat.Sym(catalog.ClassName(i), "ref"),
		o.Cat.Sym(catalog.SubClassName(i), "id"))
	return joinOf(o, left, right, pred), nil
}

// BuildUnnest builds UNNEST over the set-valued "tags" attribute of Ci:
// UNNEST(MAT(RET(Ci))) when mat is set (the unnest_mat_commute shape,
// the one trans_rule of the UNNEST space), else UNNEST(RET(Ci)).
func BuildUnnest(o *oodb.Opt, i int, mat bool) (*core.Expr, error) {
	in, err := retOf(o, i, mat)
	if err != nil {
		return nil, err
	}
	name := catalog.ClassName(i)
	cl, ok := o.Cat.Class(name)
	if !ok {
		return nil, fmt.Errorf("qgen: class %s not in catalog", name)
	}
	tags, ok := cl.Attr("tags")
	if !ok || !tags.SetValued {
		return nil, fmt.Errorf("qgen: class %s has no set-valued tags attribute", name)
	}
	ua := core.Attrs{o.Cat.Sym(name, "tags")}
	d := o.Alg.NewDesc()
	d.Set(o.UA, ua)
	d.Set(o.AT, in.D.AttrList(o.AT))
	d.SetFloat(o.NR, in.D.Float(o.NR)*tags.SetSize)
	d.SetFloat(o.TS, in.D.Float(o.TS))
	return core.NewNode(o.UNNEST, d, in), nil
}

// retOfClass builds RET over an arbitrary catalog class (retOf reaches
// the C<i> classes by index; the companion S<i> classes need this).
func retOfClass(o *oodb.Opt, name string) (*core.Expr, error) {
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
	return core.NewNode(o.RET, retD, leaf), nil
}
