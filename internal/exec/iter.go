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
	"sync"

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

// Result is a fully drained stream.
type Result struct {
	Schema data.Schema
	Rows   []data.Tuple
	// Pool renders the rows' string and set cells (Canonical); nil for a
	// stream that carries neither.
	Pool *data.Pool
}

// arena carves an operator's output rows out of chunks of cells: one
// allocation per chunk, not per row, and nothing for the collector to
// scan. A row handed out keeps its bits until Run returns, across
// re-Opens too (the arena goes on, it does not rewind), and a Result
// row forever: Compile marks scratch the arenas whose rows cannot reach
// the root's consumer (eachMem), and only a Run over the compiled plan
// hands their chunks back, once its final Close has returned.
type arena struct {
	free    []data.Datum // unused tail of the current chunk
	size    int          // cells in the current chunk
	scratch bool         // Compile found that no row of it reaches the Result
	// taken lists the full-size chunks a scratch arena holds, for
	// release to hand back.
	taken [][]data.Datum
}

// Chunks double from minChunk to maxChunk cells: small streams stay
// cheap, large ones allocate rarely. A scratch arena starts at
// maxChunk, the size the free pool holds.
const (
	minChunk = 256
	maxChunk = 8192
)

// row returns n cells. Cells of a chunk the pool gave back hold what
// another run wrote there: the caller must write all n.
func (a *arena) row(n int) data.Tuple {
	if len(a.free) < n {
		a.grow(n)
	}
	t := a.free[:n:n]
	a.free = a.free[n:]
	return t
}

// grow makes a new current chunk with room for n cells.
func (a *arena) grow(n int) {
	if a.scratch {
		a.size = maxChunk
	} else {
		a.size = min(max(2*a.size, minChunk), maxChunk)
	}
	if a.size < maxChunk || n > maxChunk {
		a.free = make([]data.Datum, max(a.size, n))
		return
	}
	a.free = chunks.take(maxChunk)
	if a.scratch {
		a.taken = append(a.taken, a.free)
	}
}

// release hands a scratch arena's chunks back to the pool and empties
// it; the next row starts a new chunk. A nil arena has none.
func (a *arena) release() {
	if a == nil || !a.scratch {
		return
	}
	chunks.give(a.taken...)
	clear(a.taken)
	a.free, a.size, a.taken = nil, 0, a.taken[:0]
}

// concat returns l followed by r as one row.
func (a *arena) concat(l, r data.Tuple) data.Tuple {
	t := a.row(len(l) + len(r))
	copy(t, l)
	copy(t[len(l):], r)
	return t
}

// The process-wide free pools Run hands a run's memory back to: arenas
// take their full-size chunks from chunks, drains their views from
// views, hash joins their chains from chains. The bounds are 32 MiB of
// cells (256 chunks), 6 MiB of views and 4 MiB of chains.
var (
	chunks = freeList[data.Datum]{limit: 256 * maxChunk}
	views  = freeList[data.Tuple]{limit: 1 << 18}
	chains = freeList[int32]{limit: 1 << 20}
)

// freeList is a free pool of buffers: a mutex-guarded stack, which
// allocates nothing once its slice has grown (a sync.Pool rebuilds its
// per-P chains after every collection). It holds at most limit elements
// of capacity; a buffer handed back past that is left to the collector.
type freeList[T any] struct {
	mu    sync.Mutex
	free  [][]T
	held  int // capacity of the buffers in free
	limit int
}

// take pops a pooled buffer of capacity n or more and returns it at
// length n, not zeroed; or it makes one.
func (p *freeList[T]) take(n int) []T {
	p.mu.Lock()
	if k := len(p.free); k > 0 && cap(p.free[k-1]) >= n {
		b := p.free[k-1]
		p.free[k-1], p.free, p.held = nil, p.free[:k-1], p.held-cap(b)
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]T, n)
}

// give pushes buffers while they fit the bound.
func (p *freeList[T]) give(bs ...[]T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range bs {
		if cap(b) > 0 && p.held+cap(b) <= p.limit {
			p.free = append(p.free, b)
			p.held += cap(b)
		}
	}
}

// Run drains an iterator. The iterator is closed whether Open, Next, or
// the drain fails, and a Close error surfaces instead of being
// discarded (unless an earlier error already won). For a compiled plan,
// Run then hands the arenas' buffers and the scratch arenas' chunks back
// to the free pools.
func Run(it Iterator) (res *Result, err error) {
	c, isCompiled := it.(compiled)
	defer func() {
		if cerr := it.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
		if isCompiled {
			eachMem(c.Iterator, true, releaseMem)
		}
	}()
	if beforeRun != nil {
		beforeRun()
	}
	if err = it.Open(); err != nil {
		return nil, err
	}
	res = &Result{Schema: it.Schema()}
	if isCompiled {
		res.Pool = c.pool
	}
	if res.Rows, err = gather(it); err != nil {
		return nil, err
	}
	return res, nil
}

// beforeRun, when set, runs as Run begins; the package's tests set it to
// fill the free pools with sentinels.
var beforeRun func()

// gather reads the rest of an open stream into a pooled view buffer and
// returns a copy at its exact length, nil for an empty stream.
func gather(it Iterator) (rows []data.Tuple, err error) {
	var buf []data.Tuple
	if err = drain(it, &buf); err == nil && len(buf) > 0 {
		rows = make([]data.Tuple, len(buf))
		copy(rows, buf)
	}
	clear(buf)
	views.give(buf)
	return rows, err
}

// drain reads the rest of an open stream into *buf, a buffer of views
// taken from the free pool on the first drain and reused after; the last
// drain's views are cleared, so it holds views only up to its length.
// Holding the rows is safe: a row keeps its bits until Run returns.
func drain(it Iterator, buf *[]data.Tuple) error {
	if *buf == nil {
		*buf = views.take(0)
	}
	clear(*buf)
	rows := (*buf)[:0]
	for {
		t, ok, err := it.Next()
		if err != nil || !ok {
			*buf = rows
			return err
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
}

func (s *scanIter) Schema() data.Schema { return s.tab.Schema }

func (s *scanIter) Open() error {
	s.pos = 0
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

// nullIter is the Null algorithm: a pure pass-through.
type nullIter struct{ in Iterator }

func (n *nullIter) Schema() data.Schema             { return n.in.Schema() }
func (n *nullIter) Open() error                     { return n.in.Open() }
func (n *nullIter) Next() (data.Tuple, bool, error) { return n.in.Next() }
func (n *nullIter) Close() error                    { return n.in.Close() }

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
	if err := drain(s.in, &s.rows); err != nil {
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
