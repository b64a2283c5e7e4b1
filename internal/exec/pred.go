package exec

import (
	"fmt"

	"prairie/internal/core"
	"prairie/internal/data"
)

// boundPred is a descriptor predicate resolved against a schema: every
// attribute is a column position, found once when the operator opens
// instead of once per term per row.
type boundPred struct {
	op   core.PredOp
	kids []boundPred
	// Comparison terms: the term itself (its constant, its error text)
	// and the columns of Left and, for an attribute comparison, Right;
	// -1 marks an attribute the schema lacks, an error only if a row
	// ever reaches the term.
	term   *core.Pred
	lc, rc int
}

// bindPred resolves p against schema s; for a join, s is the left
// schema followed by the right.
func bindPred(p *core.Pred, s data.Schema) boundPred {
	if p.IsTrue() {
		return boundPred{op: core.PredTrue}
	}
	b := boundPred{op: p.Op}
	switch p.Op {
	case core.PredAnd, core.PredOr, core.PredNot:
		b.kids = make([]boundPred, len(p.Kids))
		for i, k := range p.Kids {
			b.kids[i] = bindPred(k, s)
		}
		return b
	}
	b.term = p
	b.lc, _ = s.Col(p.Left)
	if p.AttrCmp {
		b.rc, _ = s.Col(p.Right)
	}
	return b
}

// eval evaluates the predicate on the row l followed by r, without
// concatenating them (a join tests a candidate pair before it spends a
// row on it); r is nil for a single row.
func (b *boundPred) eval(pool *data.Pool, l, r data.Tuple) (bool, error) {
	switch b.op {
	case core.PredTrue:
		return true, nil
	case core.PredAnd:
		for i := range b.kids {
			ok, err := b.kids[i].eval(pool, l, r)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case core.PredOr:
		for i := range b.kids {
			ok, err := b.kids[i].eval(pool, l, r)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case core.PredNot:
		ok, err := b.kids[0].eval(pool, l, r)
		if err != nil {
			// A failed evaluation must not read as a match: callers that
			// check the boolean before the error would otherwise treat
			// NOT(<error>) as true.
			return false, err
		}
		return !ok, nil
	}
	// Comparison.
	if b.lc < 0 {
		return false, fmt.Errorf("exec: attribute %v not in schema", b.term.Left)
	}
	x := cell(l, r, b.lc)
	var cmp int
	if b.term.AttrCmp {
		if b.rc < 0 {
			return false, fmt.Errorf("exec: attribute %v not in schema", b.term.Right)
		}
		y := cell(l, r, b.rc)
		switch {
		case x.Equal(y):
			cmp = 0
		case pool.Less(x, y):
			cmp = -1
		default:
			cmp = 1
		}
	} else {
		var comparable bool
		cmp, comparable = pool.Compare(x, b.term.Const)
		if !comparable {
			return false, fmt.Errorf("exec: cannot compare %s with %v", pool.Format(x), b.term.Const)
		}
	}
	switch b.op {
	case core.PredEq:
		return cmp == 0, nil
	case core.PredNe:
		return cmp != 0, nil
	case core.PredLt:
		return cmp < 0, nil
	case core.PredLe:
		return cmp <= 0, nil
	case core.PredGt:
		return cmp > 0, nil
	case core.PredGe:
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("exec: unsupported predicate %v", b.term)
}

// cell returns column c of the row l followed by r.
func cell(l, r data.Tuple, c int) data.Datum {
	if c < len(l) {
		return l[c]
	}
	return r[c-len(l)]
}
