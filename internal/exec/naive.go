package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"prairie/internal/core"
	"prairie/internal/data"
)

// Naive is a reference evaluator: it computes the result of a *logical*
// operator tree (RET, JOIN, SELECT, PROJECT, SORT, MAT, UNNEST) directly,
// with the simplest possible semantics. Tests compare optimized plans
// against it.
type Naive struct {
	DB *data.DB
	P  Props
}

// Eval computes the result of a logical operator tree.
func (n *Naive) Eval(tree *core.Expr) (*Result, error) {
	if tree.IsLeaf() {
		tab, ok := n.DB.Table(tree.File)
		if !ok {
			return nil, fmt.Errorf("exec: unknown stored file %q", tree.File)
		}
		return &Result{Schema: tab.Schema, Rows: tab.Rows, Pool: n.DB.Pool()}, nil
	}
	kids := make([]*Result, len(tree.Kids))
	for i, k := range tree.Kids {
		r, err := n.Eval(k)
		if err != nil {
			return nil, err
		}
		kids[i] = r
	}
	switch tree.Op.Name {
	case "RET":
		return n.filter(kids[0], n.predOf(tree, n.P.SP))
	case "SELECT":
		return n.filter(kids[0], n.predOf(tree, n.P.SP))
	case "PROJECT":
		return n.project(kids[0], tree.D.AttrList(n.P.PA))
	case "JOIN", "JOPR":
		return n.join(kids[0], kids[1], n.predOf(tree, n.P.JP))
	case "SORT":
		return n.sort(kids[0], tree.D.Order(n.P.Ord))
	case "MAT":
		return n.materialize(kids[0], tree.D.AttrList(n.P.MA))
	case "UNNEST":
		return n.unnest(kids[0], tree.D.AttrList(n.P.UA))
	}
	return nil, fmt.Errorf("exec: naive evaluator does not know operator %s", tree.Op.Name)
}

func (n *Naive) predOf(tree *core.Expr, id core.PropID) *core.Pred {
	if id == core.NoProp {
		return core.TruePred
	}
	return tree.D.Pred(id)
}

func (n *Naive) filter(in *Result, p *core.Pred) (*Result, error) {
	out := &Result{Schema: in.Schema, Pool: in.Pool}
	bound := bindPred(p, in.Schema)
	for _, t := range in.Rows {
		ok, err := bound.eval(in.Pool, t, nil)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, t)
		}
	}
	return out, nil
}

func (n *Naive) project(in *Result, attrs core.Attrs) (*Result, error) {
	cols := make([]int, len(attrs))
	out := &Result{Schema: data.Schema(attrs), Pool: in.Pool}
	for i, a := range attrs {
		c, ok := in.Schema.Col(a)
		if !ok {
			return nil, fmt.Errorf("exec: projected attribute %v not in input", a)
		}
		cols[i] = c
	}
	for _, t := range in.Rows {
		row := make(data.Tuple, len(cols))
		for i, c := range cols {
			row[i] = t[c]
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func (n *Naive) join(l, r *Result, p *core.Pred) (*Result, error) {
	out := &Result{Schema: l.Schema.Concat(r.Schema), Pool: l.Pool}
	bound := bindPred(p, out.Schema)
	// The predicate reads the concatenated row (the engine reads the
	// pair), built in one scratch row; a match gets a slice of its own.
	var joined data.Tuple
	for _, lt := range l.Rows {
		for _, rt := range r.Rows {
			joined = append(append(joined[:0], lt...), rt...)
			ok, err := bound.eval(out.Pool, joined, nil)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Rows = append(out.Rows, slices.Clone(joined))
			}
		}
	}
	return out, nil
}

func (n *Naive) sort(in *Result, ord core.Order) (*Result, error) {
	out := &Result{Schema: in.Schema, Rows: append([]data.Tuple{}, in.Rows...), Pool: in.Pool}
	if ord.IsDontCare() {
		return out, nil
	}
	cols := make([]int, len(ord.By))
	for i, a := range ord.By {
		c, ok := in.Schema.Col(a)
		if !ok {
			return nil, fmt.Errorf("exec: sort attribute %v not in input", a)
		}
		cols[i] = c
	}
	sort.SliceStable(out.Rows, func(i, j int) bool {
		for _, c := range cols {
			if out.Pool.Less(out.Rows[i][c], out.Rows[j][c]) {
				return true
			}
			if out.Pool.Less(out.Rows[j][c], out.Rows[i][c]) {
				return false
			}
		}
		return false
	})
	return out, nil
}

func (n *Naive) materialize(in *Result, refs core.Attrs) (*Result, error) {
	if len(refs) != 1 {
		return nil, fmt.Errorf("exec: MAT needs one pointer attribute, got %v", refs)
	}
	ref := refs[0]
	srcTab, ok := n.DB.Table(ref.Rel())
	if !ok {
		return nil, fmt.Errorf("exec: unknown class %q", ref.Rel())
	}
	attr, ok := srcTab.Class.Attr(ref.Name())
	if !ok || attr.Ref == "" {
		return nil, fmt.Errorf("exec: %v is not a pointer attribute", ref)
	}
	target, ok := n.DB.Table(attr.Ref)
	if !ok {
		return nil, fmt.Errorf("exec: unknown target class %q", attr.Ref)
	}
	idCol, ok := target.Col("id")
	if !ok {
		return nil, fmt.Errorf("exec: %s has no id attribute", target.Class.Name)
	}
	refCol, ok := in.Schema.Col(ref)
	if !ok {
		return nil, fmt.Errorf("exec: pointer attribute %v not in input", ref)
	}
	out := &Result{Schema: in.Schema.Concat(target.Schema), Pool: in.Pool}
	for _, t := range in.Rows {
		for _, row := range target.Rows {
			if row[idCol].Equal(t[refCol]) {
				out.Rows = append(out.Rows, append(append(data.Tuple{}, t...), row...))
				break
			}
		}
	}
	return out, nil
}

func (n *Naive) unnest(in *Result, attrs core.Attrs) (*Result, error) {
	if len(attrs) != 1 {
		return nil, fmt.Errorf("exec: UNNEST needs one set attribute, got %v", attrs)
	}
	col, ok := in.Schema.Col(attrs[0])
	if !ok {
		return nil, fmt.Errorf("exec: set attribute %v not in input", attrs[0])
	}
	out := &Result{Schema: in.Schema, Pool: in.Pool}
	for _, t := range in.Rows {
		if t[col].Kind != data.DSet {
			return nil, fmt.Errorf("exec: UNNEST of non-set column")
		}
		for _, v := range in.Pool.SetOf(t[col]) {
			row := append(data.Tuple{}, t...)
			row[col] = data.IntD(v)
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Result comparison

// Canonical renders a result as sorted strings over its name-sorted
// columns, making results comparable across plans that permute column
// order (join commutativity does).
func Canonical(r *Result) []string {
	idx := make([]int, len(r.Schema))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return r.Schema[idx[a]].Compare(r.Schema[idx[b]]) < 0
	})
	out := make([]string, len(r.Rows))
	for i, t := range r.Rows {
		parts := make([]string, len(idx))
		for j, c := range idx {
			parts[j] = r.Schema[c].String() + "=" + r.Pool.Format(t[c])
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// DiffBags returns the canonical rows in a but not b and in b but not a,
// with bag multiplicity respected (a row appearing twice in a and once
// in b contributes one onlyA entry). Counterexample reports use it to
// show exactly which tuples a bad rewrite lost or invented.
func DiffBags(a, b *Result) (onlyA, onlyB []string) {
	ca, cb := Canonical(a), Canonical(b)
	i, j := 0, 0
	for i < len(ca) && j < len(cb) {
		switch {
		case ca[i] == cb[j]:
			i++
			j++
		case ca[i] < cb[j]:
			onlyA = append(onlyA, ca[i])
			i++
		default:
			onlyB = append(onlyB, cb[j])
			j++
		}
	}
	onlyA = append(onlyA, ca[i:]...)
	onlyB = append(onlyB, cb[j:]...)
	return onlyA, onlyB
}

// SameBag reports whether two results hold the same bag of tuples,
// ignoring column and row order.
func SameBag(a, b *Result) bool {
	ca, cb := Canonical(a), Canonical(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}
