package exec

import (
	"fmt"

	"prairie/internal/core"
	"prairie/internal/data"
)

// joinState is what the three join algorithms share: which inputs are
// open, the predicate bound over the joined schema, and the arena their
// output rows come from. (The inputs stay fields of each iterator.)
type joinState struct {
	bound        boundPred
	out          data.Schema
	lOpen, rOpen bool
	mem          arena
}

// open opens both inputs — before reading schemas: some iterators
// (Materialize) only know theirs once opened — and binds the predicate.
func (s *joinState) open(l, r Iterator, pred *core.Pred) error {
	if err := l.Open(); err != nil {
		return err
	}
	s.lOpen = true
	if err := r.Open(); err != nil {
		return err
	}
	s.rOpen = true
	s.out = l.Schema().Concat(r.Schema())
	s.bound = bindPred(pred, s.out)
	return nil
}

// close closes whichever inputs are still open, clearing the flags so a
// second Close is a no-op; the first error wins. Every join iterator
// routes Close through it, which is what makes the package invariant
// hold: Close is always safe — after a partial Open, after an Open that
// failed, after a previous Close — and releases exactly what is still
// held.
func (s *joinState) close(l, r Iterator) error {
	var err error
	if s.lOpen {
		s.lOpen = false
		err = l.Close()
	}
	if s.rOpen {
		s.rOpen = false
		if e := r.Close(); err == nil {
			err = e
		}
	}
	return err
}

// drain reads the whole right input into *buf and closes it. The rows
// stay where their producer put them: the buffer holds views, and a
// join's hash chains or inner loop hold ordinals into it.
func (s *joinState) drain(r Iterator, buf *[]data.Tuple) error {
	if err := drain(r, buf); err != nil {
		return err
	}
	s.rOpen = false
	return r.Close()
}

// emit tests the predicate on the pair and only then spends an output
// row on it: one copy per side into the arena.
func (s *joinState) emit(pool *data.Pool, l, r data.Tuple) (data.Tuple, bool, error) {
	ok, err := s.bound.eval(pool, l, r)
	if err != nil || !ok {
		return nil, false, err
	}
	return s.mem.concat(l, r), true, nil
}

// nlJoinIter is the nested-loops join: for each outer tuple, scan the
// (materialized) inner input.
type nlJoinIter struct {
	l, r  Iterator
	pool  *data.Pool
	pred  *core.Pred
	st    joinState
	inner []data.Tuple
	cur   data.Tuple
	pos   int
}

func (j *nlJoinIter) Schema() data.Schema { return j.st.out }
func (j *nlJoinIter) Close() error        { return j.st.close(j.l, j.r) }

func (j *nlJoinIter) Open() (err error) {
	if err = j.st.open(j.l, j.r, j.pred); err != nil {
		return err
	}
	j.cur, j.pos = nil, 0
	return j.st.drain(j.r, &j.inner)
}

func (j *nlJoinIter) Next() (data.Tuple, bool, error) {
	// Empty inner input: no tuple can join, so the outer is never pulled.
	for len(j.inner) > 0 {
		if j.cur == nil {
			t, ok, err := j.l.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur, j.pos = t, 0
		}
		for j.pos < len(j.inner) {
			j.pos++
			if t, ok, err := j.st.emit(j.pool, j.cur, j.inner[j.pos-1]); ok || err != nil {
				return t, ok, err
			}
		}
		j.cur = nil
	}
	return nil, false, nil
}

// hashJoinIter is an equi-join: it indexes the right input's rows by the
// hash of their join attribute and probes with the left. Residual
// conjuncts of the predicate are applied after probing.
type hashJoinIter struct {
	l, r       Iterator
	pool       *data.Pool
	pred       *core.Pred
	st         joinState
	lCol, rCol int
	build      []data.Tuple
	index      data.HashIndex
	cur        data.Tuple
	match      int // next build ordinal of cur's chain; -1 at its end
}

func (j *hashJoinIter) Schema() data.Schema { return j.st.out }
func (j *hashJoinIter) Close() error        { return j.st.close(j.l, j.r) }

func (j *hashJoinIter) Open() (err error) {
	if err = j.st.open(j.l, j.r, j.pred); err != nil {
		return err
	}
	if j.lCol, j.rCol, err = equiCols("hash", j.pred, j.l.Schema(), j.r.Schema()); err != nil {
		return err
	}
	if err = j.st.drain(j.r, &j.build); err != nil {
		return err
	}
	// The chains, like the build rows, come from the free pool on the
	// first Open and are reused on a re-Open.
	slots, next := j.index.Chains()
	if slots == nil {
		slots, next = chains.take(0), chains.take(0)
	}
	j.index = data.NewHashIndexIn(slots, next, len(j.build), func(i int) uint64 { return j.build[i][j.rCol].Hash() })
	j.cur, j.match = nil, -1
	return nil
}

func (j *hashJoinIter) Next() (data.Tuple, bool, error) {
	// Empty build side: no probe can match, so the left is never pulled.
	for len(j.build) > 0 {
		for j.match >= 0 {
			inner := j.build[j.match]
			j.match = j.index.Next(j.match)
			if !j.cur[j.lCol].Equal(inner[j.rCol]) {
				continue // another key of the same chain
			}
			if t, ok, err := j.st.emit(j.pool, j.cur, inner); ok || err != nil {
				return t, ok, err
			}
		}
		t, ok, err := j.l.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur, j.match = t, j.index.First(t[j.lCol].Hash())
	}
	return nil, false, nil
}

// mergeJoinIter is an equi-join over inputs sorted on the join
// attributes. It streams: only the current right-side group of equal
// keys is buffered, so memory is bounded by the widest key group rather
// than the full join output. It verifies the sortedness it depends on
// incrementally — as tuples are consumed — and fails loudly if an
// optimizer bug delivers unsorted input; tuples past the point where
// one side exhausts are never read, which is also the early-termination
// path for an empty input.
type mergeJoinIter struct {
	l, r       Iterator
	pool       *data.Pool
	pred       *core.Pred
	st         joinState
	lCol, rCol int

	lt           data.Tuple // current left tuple; nil once the left is exhausted
	rNext        data.Tuple // right lookahead past the buffered group; nil once exhausted
	lPrev, rPrev data.Tuple // sortedness witnesses
	group        []data.Tuple
	groupKey     data.Datum
	haveGroup    bool
	gi           int
	done         bool
}

func (j *mergeJoinIter) Schema() data.Schema { return j.st.out }
func (j *mergeJoinIter) Close() error        { return j.st.close(j.l, j.r) }

func (j *mergeJoinIter) Open() (err error) {
	if err = j.st.open(j.l, j.r, j.pred); err != nil {
		return err
	}
	if j.lCol, j.rCol, err = equiCols("merge", j.pred, j.l.Schema(), j.r.Schema()); err != nil {
		return err
	}
	j.lt, j.rNext, j.lPrev, j.rPrev = nil, nil, nil, nil
	j.group, j.haveGroup, j.gi, j.done = j.group[:0], false, 0, false
	// Prime one tuple of lookahead per side; an empty side ends the
	// join before the other side is read at all.
	if err := j.advanceLeft(); err != nil {
		return err
	}
	if j.lt == nil {
		j.done = true
		return nil
	}
	if err := j.advanceRight(); err != nil {
		return err
	}
	if j.rNext == nil {
		j.done = true
	}
	return nil
}

// advance reads the next tuple of one input (nil at end of stream),
// verifying against *prev the sort order the merge depends on.
func (j *mergeJoinIter) advance(in Iterator, col int, prev *data.Tuple, side string) (data.Tuple, error) {
	t, ok, err := in.Next()
	if err != nil || !ok {
		return nil, err
	}
	if *prev != nil && j.pool.Less(t[col], (*prev)[col]) {
		return nil, fmt.Errorf("exec: merge join %s input not sorted on %v", side, in.Schema()[col])
	}
	*prev = t
	return t, nil
}

func (j *mergeJoinIter) advanceLeft() (err error) {
	j.lt, err = j.advance(j.l, j.lCol, &j.lPrev, "left")
	return err
}

func (j *mergeJoinIter) advanceRight() (err error) {
	j.rNext, err = j.advance(j.r, j.rCol, &j.rPrev, "right")
	return err
}

func (j *mergeJoinIter) Next() (data.Tuple, bool, error) {
	for {
		if j.done {
			return nil, false, nil
		}
		// Pair the current left tuple with the buffered key group.
		if j.haveGroup && j.lt != nil && j.lt[j.lCol].Equal(j.groupKey) {
			if j.gi < len(j.group) {
				j.gi++
				if t, ok, err := j.st.emit(j.pool, j.lt, j.group[j.gi-1]); ok || err != nil {
					return t, ok, err
				}
				continue
			}
			// This left tuple has seen the whole group; next left tuple
			// may share the key (group-wise cross product).
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
			j.gi = 0
			continue
		}
		// The left side moved past the group (sorted inputs: it can
		// never come back) or no group is loaded yet: discard and align.
		j.haveGroup = false
		if j.lt == nil || j.rNext == nil {
			j.done = true
			continue
		}
		lv, rv := j.lt[j.lCol], j.rNext[j.rCol]
		switch {
		case j.pool.Less(lv, rv):
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
		case j.pool.Less(rv, lv):
			if err := j.advanceRight(); err != nil {
				return nil, false, err
			}
		default:
			// Keys match: buffer the full right group for this key.
			j.groupKey = rv
			j.group = append(j.group[:0], j.rNext)
			for {
				if err := j.advanceRight(); err != nil {
					return nil, false, err
				}
				if j.rNext == nil || !j.rNext[j.rCol].Equal(j.groupKey) {
					break
				}
				j.group = append(j.group, j.rNext)
			}
			j.haveGroup = true
			j.gi = 0
		}
	}
}

// equiCols finds the predicate's single equi-join term and returns its
// columns, the first in the left schema and the second in the right.
func equiCols(algo string, pred *core.Pred, left, right data.Schema) (lCol, rCol int, err error) {
	var term *core.Pred
	for _, t := range pred.Conjuncts() {
		if t.IsEquiJoin() {
			term = t
			break
		}
	}
	if term == nil {
		return 0, 0, fmt.Errorf("exec: join predicate %v has no equi term", pred)
	}
	lk, rk := term.Left, term.Right
	lCol, ok := left.Col(lk)
	if !ok {
		lk, rk = rk, lk
		if lCol, ok = left.Col(lk); !ok {
			return 0, 0, fmt.Errorf("exec: equi term %v matches neither input", term)
		}
	}
	if rCol, ok = right.Col(rk); !ok {
		return 0, 0, fmt.Errorf("exec: %s join key %v not in right input", algo, rk)
	}
	return lCol, rCol, nil
}
