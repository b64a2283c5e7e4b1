// Package exec executes access plans: it compiles the operator trees the
// optimizer returns into Volcano-style demand-driven iterators
// over the in-memory tables of package data. The Open OODB transformed
// winning plans into C++ programs; this executor is the repository's
// substitute, and it lets the test suite verify that every plan in a
// query's search space computes the same result.
package exec

import (
	"fmt"
	"sort"

	"prairie/internal/core"
	"prairie/internal/data"
)

// Iterator is the demand-driven stream interface (Volcano's
// open/next/close protocol).
//
// Close discipline: Close is always safe to call — after a failed or
// partial Open, after end of stream, and repeatedly — and it releases
// whatever the iterator still holds open, including children whose own
// Open succeeded before a later step failed. Operators therefore never
// need to unwind on error paths inside Open; the caller's single
// deferred Close reaches everything.
type Iterator interface {
	// Schema describes the stream's columns; valid before Open.
	Schema() data.Schema
	Open() error
	// Next returns the next tuple; ok is false at end of stream.
	Next() (t data.Tuple, ok bool, err error)
	Close() error
}

// rowHinter is an optional Iterator refinement: operators that know (an
// upper bound on) their output cardinality report it so consumers can
// pre-size hash tables. Hints are advisory and never affect results.
type rowHinter interface {
	RowHint() (int, bool)
}

// rowHint queries an iterator's cardinality hint, if it offers one.
func rowHint(it Iterator) (int, bool) {
	if h, ok := it.(rowHinter); ok {
		return h.RowHint()
	}
	return 0, false
}

// Result is a fully drained stream.
type Result struct {
	Schema data.Schema
	Rows   []data.Tuple
	// Pool renders the rows' string and set cells (Canonical); nil for a
	// stream that carries neither.
	Pool *data.Pool
}

// arena carves an operator's output rows out of append-only chunks of
// cells: one allocation per chunk, not per row, and nothing for the
// collector to scan. A row handed out is never written again — a full
// chunk is left to the rows pointing into it, across re-Opens too — so
// consumers may hold rows past Close, as Run's Result does.
type arena struct {
	free []data.Datum // unused tail of the current chunk
	size int          // cells in the current chunk
}

// Chunks double from minChunk to maxChunk cells: small streams stay
// cheap, large ones allocate rarely.
const (
	minChunk = 256
	maxChunk = 8192
)

// row returns n fresh cells.
func (a *arena) row(n int) data.Tuple {
	if len(a.free) < n {
		a.size = min(max(2*a.size, minChunk), maxChunk)
		a.free = make([]data.Datum, max(a.size, n))
	}
	t := a.free[:n:n]
	a.free = a.free[n:]
	return t
}

// concat returns l followed by r as one fresh row.
func (a *arena) concat(l, r data.Tuple) data.Tuple {
	t := a.row(len(l) + len(r))
	copy(t, l)
	copy(t[len(l):], r)
	return t
}

// Run drains an iterator. The iterator is closed whether Open, Next, or
// the drain fails, and a Close error surfaces instead of being
// discarded (unless an earlier error already won).
func Run(it Iterator) (res *Result, err error) {
	defer func() {
		if cerr := it.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()
	if err = it.Open(); err != nil {
		return nil, err
	}
	res = &Result{Schema: it.Schema()}
	if c, ok := it.(compiled); ok {
		res.Pool = c.pool
	}
	if res.Rows, err = readAll(it, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// readAll appends the rest of an open stream to rows. Holding the rows
// is safe: no producer overwrites a row it has returned.
func readAll(it Iterator, rows []data.Tuple) ([]data.Tuple, error) {
	for {
		t, ok, err := it.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, t)
	}
}

// ---------------------------------------------------------------------------
// Scans

// scanIter scans a table, applying a selection predicate. When byIndex
// is set, it simulates an index scan: candidate rows come from the hash
// index for equality selections on the indexed attribute (or all rows),
// and tuples are delivered in index-attribute order. The rows it
// returns are the table's own.
type scanIter struct {
	tab     *data.Table
	pool    *data.Pool
	sel     *core.Pred
	byIndex core.Attr // zero: plain file scan
	rows    []data.Tuple
	pos     int
	opened  bool
}

func (s *scanIter) Schema() data.Schema { return s.tab.Schema }

// RowHint is exact once the scan is open (the selection has been
// applied) and an upper bound — the stored table's cardinality —
// before.
func (s *scanIter) RowHint() (int, bool) {
	if s.opened {
		return len(s.rows), true
	}
	return len(s.tab.Rows), true
}

func (s *scanIter) Open() error {
	s.pos = 0
	s.opened = true
	indexed := s.byIndex != (core.Attr{})
	if !indexed && s.sel.IsTrue() {
		s.rows = s.tab.Rows
		return nil
	}
	s.rows = nil
	candidates := s.tab.Rows
	if indexed && s.tab.HasIndex(s.byIndex.Name()) {
		if eq, ok := indexEqTerm(s.sel, s.byIndex, s.pool); ok {
			candidates = nil
			for _, r := range s.tab.Index(s.byIndex.Name(), eq) {
				candidates = append(candidates, s.tab.Rows[r])
			}
		}
	}
	sel := bindPred(s.sel, s.tab.Schema)
	for _, row := range candidates {
		ok, err := sel.eval(s.pool, row, nil)
		if err != nil {
			return err
		}
		if ok {
			s.rows = append(s.rows, row)
		}
	}
	if indexed {
		col, ok := s.tab.Schema.Col(s.byIndex)
		if !ok {
			return fmt.Errorf("exec: index attribute %v not in %s", s.byIndex, s.tab.Class.Name)
		}
		sort.SliceStable(s.rows, func(i, j int) bool { return s.pool.Less(s.rows[i][col], s.rows[j][col]) })
	}
	return nil
}

func (s *scanIter) Next() (data.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

func (s *scanIter) Close() error { return nil }

// indexEqTerm finds an equality term "ix = const" in the selection and
// returns the constant as rows store it. A string no row holds has no
// such form — the pool is not grown on the read path — so the scan tests
// every row instead, and the selection rejects them all.
func indexEqTerm(sel *core.Pred, ix core.Attr, pool *data.Pool) (data.Datum, bool) {
	for _, t := range sel.Conjuncts() {
		if t.Op == core.PredEq && !t.AttrCmp && t.Left == ix {
			switch c := t.Const.(type) {
			case core.Int:
				return data.IntD(int64(c)), true
			case core.Str:
				return pool.LookupStr(string(c))
			}
		}
	}
	return data.Datum{}, false
}

// ---------------------------------------------------------------------------
// Filter / Project / Null

type filterIter struct {
	in    Iterator
	pool  *data.Pool
	pred  *core.Pred
	bound boundPred
}

func (f *filterIter) Schema() data.Schema { return f.in.Schema() }
func (f *filterIter) Close() error        { return f.in.Close() }

func (f *filterIter) Open() error {
	if err := f.in.Open(); err != nil {
		return err
	}
	f.bound = bindPred(f.pred, f.in.Schema())
	return nil
}

// RowHint passes through the input's bound: a filter only removes rows.
func (f *filterIter) RowHint() (int, bool) { return rowHint(f.in) }

func (f *filterIter) Next() (data.Tuple, bool, error) {
	for {
		t, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		keep, err := f.bound.eval(f.pool, t, nil)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return t, true, nil
		}
	}
}

type projectIter struct {
	in    Iterator
	attrs core.Attrs
	out   data.Schema
	cols  []int
	mem   arena
}

func (p *projectIter) Schema() data.Schema { return p.out }

func (p *projectIter) Open() error {
	if err := p.in.Open(); err != nil {
		return err
	}
	p.out = nil
	p.cols = nil
	for _, a := range p.attrs {
		col, ok := p.in.Schema().Col(a)
		if !ok {
			return fmt.Errorf("exec: projected attribute %v not in input", a)
		}
		p.out = append(p.out, a)
		p.cols = append(p.cols, col)
	}
	return nil
}

func (p *projectIter) Next() (data.Tuple, bool, error) {
	t, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := p.mem.row(len(p.cols))
	for i, c := range p.cols {
		out[i] = t[c]
	}
	return out, true, nil
}

func (p *projectIter) Close() error { return p.in.Close() }

// RowHint: projection is row-preserving.
func (p *projectIter) RowHint() (int, bool) { return rowHint(p.in) }

// nullIter is the Null algorithm: a pure pass-through.
type nullIter struct{ in Iterator }

func (n *nullIter) Schema() data.Schema             { return n.in.Schema() }
func (n *nullIter) Open() error                     { return n.in.Open() }
func (n *nullIter) Next() (data.Tuple, bool, error) { return n.in.Next() }
func (n *nullIter) Close() error                    { return n.in.Close() }
func (n *nullIter) RowHint() (int, bool)            { return rowHint(n.in) }

// ---------------------------------------------------------------------------
// Sort

type sortIter struct {
	in     Iterator
	pool   *data.Pool
	by     []core.Attr
	rows   []data.Tuple
	pos    int
	inOpen bool
}

func (s *sortIter) Schema() data.Schema { return s.in.Schema() }

// RowHint: sorting is row-preserving; exact once drained.
func (s *sortIter) RowHint() (int, bool) {
	if !s.inOpen && s.rows != nil {
		return len(s.rows), true
	}
	return rowHint(s.in)
}

func (s *sortIter) Open() error {
	if err := s.in.Open(); err != nil {
		return err
	}
	s.inOpen = true
	s.pos = 0
	cols := make([]int, len(s.by))
	for i, a := range s.by {
		c, ok := s.in.Schema().Col(a)
		if !ok {
			return fmt.Errorf("exec: sort attribute %v not in input", a)
		}
		cols[i] = c
	}
	var err error
	if s.rows, err = readAll(s.in, nil); err != nil {
		return err
	}
	// The sort is a pipeline breaker: the input is fully consumed, so
	// release it now rather than holding it until Close.
	s.inOpen = false
	if err := s.in.Close(); err != nil {
		return err
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, c := range cols {
			if s.pool.Less(s.rows[i][c], s.rows[j][c]) {
				return true
			}
			if s.pool.Less(s.rows[j][c], s.rows[i][c]) {
				return false
			}
		}
		return false
	})
	return nil
}

func (s *sortIter) Next() (data.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

func (s *sortIter) Close() error {
	if !s.inOpen {
		return nil
	}
	s.inOpen = false
	return s.in.Close()
}

// ---------------------------------------------------------------------------
// Unnest

// unnestIter flattens a set-valued column: one output tuple per element,
// with the set column replaced by the element.
type unnestIter struct {
	in      Iterator
	pool    *data.Pool
	attr    core.Attr
	col     int
	current data.Tuple
	elems   []int64 // of current's set, the pool's
	idx     int
	mem     arena
}

func (u *unnestIter) Schema() data.Schema { return u.in.Schema() }

func (u *unnestIter) Open() error {
	if err := u.in.Open(); err != nil {
		return err
	}
	c, ok := u.in.Schema().Col(u.attr)
	if !ok {
		return fmt.Errorf("exec: unnest attribute %v not in input", u.attr)
	}
	u.col = c
	u.current, u.elems, u.idx = nil, nil, 0
	return nil
}

func (u *unnestIter) Next() (data.Tuple, bool, error) {
	for {
		if u.idx < len(u.elems) {
			out := u.mem.row(len(u.current))
			copy(out, u.current)
			out[u.col] = data.IntD(u.elems[u.idx])
			u.idx++
			return out, true, nil
		}
		t, ok, err := u.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if t[u.col].Kind != data.DSet {
			return nil, false, fmt.Errorf("exec: unnest of non-set column %v", u.attr)
		}
		u.current, u.elems, u.idx = t, u.pool.SetOf(t[u.col]), 0
	}
}

func (u *unnestIter) Close() error { return u.in.Close() }
