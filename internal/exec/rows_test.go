package exec

import (
	"sync"
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/data"
)

// handDB is the database the generators never produce: string columns,
// repeated strings and sets (one pool entry each), sets that share a
// first element, an empty set, and in S2 ids that are not row ordinals
// and a pointer that dangles, so MAT takes the id index.
func handDB(t testing.TB) *data.DB {
	t.Helper()
	cat := catalog.New()
	s1 := cat.Add(&catalog.Class{
		Name: "S1", Card: 8, TupleSize: 64, Indexes: []string{"name"},
		Attrs: []catalog.Attribute{
			{Name: "id", Distinct: 8}, {Name: "name", Distinct: 4},
			{Name: "tags", Distinct: 4, SetValued: true, SetSize: 2}, {Name: "ref", Distinct: 4, Ref: "S2"},
		},
	})
	s2 := cat.Add(&catalog.Class{
		Name: "S2", Card: 4, TupleSize: 64,
		Attrs: []catalog.Attribute{
			{Name: "id", Distinct: 4}, {Name: "name", Distinct: 4},
			{Name: "tags", Distinct: 4, SetValued: true, SetSize: 2},
		},
	})
	db := data.NewDB()
	p := db.Pool()
	names := []string{"pear", "apple", "fig", "apple", "pear", "kiwi", "fig", "apple"}
	tags := [][]int64{{1, 2}, {1, 5}, {3}, {1, 2}, {}, {3}, {2, 1}, {1, 5}}
	refs := []int64{30, 10, 20, 99, 0, 10, 30, 20} // 99 dangles; 0 is an ordinal but nobody's id
	var rows []data.Tuple
	for i := range names {
		rows = append(rows, data.Tuple{data.IntD(int64(i)), p.Str(names[i]), p.Set(tags[i]...), data.RefD(refs[i])})
	}
	db.AddTable(s1, rows)
	db.AddTable(s2, []data.Tuple{
		{data.IntD(10), p.Str("apple"), p.Set(1, 2)},
		{data.IntD(20), p.Str("fig"), p.Set(1, 5)},
		{data.IntD(30), p.Str("plum"), p.Set(3)},
		{data.IntD(40), p.Str("pear"), p.Set()},
	})
	db.Freeze()
	return db
}

// plans builds physical plans and the logical trees Naive evaluates.
type plans struct {
	tp       *tinyProps
	ops, log map[string]*core.Operation
}

func newPlans() *plans {
	p := &plans{tp: newTinyProps(), ops: planAlgebra(), log: map[string]*core.Operation{}}
	for name, arity := range map[string]int{"RET": 1, "JOIN": 2, "SELECT": 1, "PROJECT": 1, "SORT": 1, "MAT": 1, "UNNEST": 1} {
		p.log[name] = &core.Operation{Name: name, Kind: core.Operator, Arity: arity}
	}
	return p
}

// node builds op (physical if the plan algebra knows the name, logical
// otherwise) with one property set.
func (p *plans) node(op string, id core.PropID, v core.Value, kids ...*core.Expr) *core.Expr {
	o, ok := p.ops[op]
	if !ok {
		o = p.log[op]
	}
	return core.NewNode(o, p.tp.desc(func(d *core.Descriptor) {
		if v != nil {
			d.Set(id, v)
		}
	}), kids...)
}

func (p *plans) leaf(file string) *core.Expr { return core.NewLeaf(file, p.tp.desc(nil)) }
func (p *plans) scan(file string) *core.Expr {
	return p.node("File_scan", 0, nil, p.leaf(file))
}
func (p *plans) ret(file string) *core.Expr { return p.node("RET", 0, nil, p.leaf(file)) }
func (p *plans) sorted(in *core.Expr, by ...core.Attr) *core.Expr {
	return p.node("Merge_sort", p.tp.ord, core.OrderBy(by...), in)
}

// everyOperator is one plan per row-producing operator (and the ones
// that pass rows through) over the generated test database.
func (p *plans) everyOperator() map[string]*core.Expr {
	a1, a2, b1 := core.A("C1", "a"), core.A("C2", "a"), core.A("C1", "b")
	jp := core.EqAttr(a1, a2)
	tp := p.tp.p
	return map[string]*core.Expr{
		"scan":    p.node("File_scan", tp.SP, core.CmpConst(core.PredLt, b1, core.Int(4)), p.leaf("C1")),
		"index":   p.node("Index_scan", p.tp.ord, core.OrderBy(b1), p.leaf("C1")),
		"filter":  p.node("Filter", tp.SP, core.CmpConst(core.PredLt, b1, core.Int(4)), p.scan("C1")),
		"project": p.node("Project", tp.PA, core.Attrs{b1, a1}, p.scan("C1")),
		"null":    p.node(core.NullName, 0, nil, p.scan("C1")),
		"sort":    p.sorted(p.scan("C1"), b1, a1),
		"nl":      p.node("Nested_loops", tp.JP, jp, p.scan("C1"), p.scan("C2")),
		"hash":    p.node("Hash_join", tp.JP, jp, p.scan("C1"), p.scan("C2")),
		"merge":   p.node("Merge_join", tp.JP, jp, p.sorted(p.scan("C1"), a1), p.sorted(p.scan("C2"), a2)),
		"mat":     p.node("Materialize", tp.MA, core.Attrs{core.A("C1", "ref")}, p.scan("C1")),
		"unnest":  p.node("Flatten", tp.UA, core.Attrs{core.A("C1", "tags")}, p.scan("C1")),
		"deep": p.node("Flatten", tp.UA, core.Attrs{core.A("C2", "tags")},
			p.node("Hash_join", tp.JP, jp,
				p.node("Materialize", tp.MA, core.Attrs{core.A("C1", "ref")}, p.scan("C1")),
				p.node("Project", tp.PA, core.Attrs{a2, core.A("C2", "tags")}, p.scan("C2")))),
	}
}

func cloneRows(rows []data.Tuple) []data.Tuple {
	out := make([]data.Tuple, len(rows))
	for i, r := range rows {
		out[i] = append(data.Tuple{}, r...)
	}
	return out
}

func sameCells(t *testing.T, when string, held, want []data.Tuple) {
	t.Helper()
	for i := range want {
		if len(held[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d cells, had %d", when, i, len(held[i]), len(want[i]))
		}
		for c := range want[i] {
			if held[i][c] != want[i][c] {
				t.Fatalf("%s: row %d cell %d is %v, was %v when Next returned it", when, i, c, held[i][c], want[i][c])
			}
		}
	}
}

// TestReturnedRowsAreNeverOverwritten: a row Next has returned keeps its
// bits — while the stream is drained, after Close, when the same
// iterator is opened and drained again (its arena goes on, it does not
// rewind), and after another Compile+Run over the same database.
func TestReturnedRowsAreNeverOverwritten(t *testing.T) {
	db, _ := testDB()
	p := newPlans()
	for name, plan := range p.everyOperator() {
		t.Run(name, func(t *testing.T) {
			c := NewCompiler(db, p.tp.p)
			it, err := c.Compile(plan)
			if err != nil {
				t.Fatal(err)
			}
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			var held, want []data.Tuple
			for {
				row, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				held = append(held, row)
				want = append(want, append(data.Tuple{}, row...))
			}
			if len(held) == 0 {
				t.Fatal("empty stream: the plan tests nothing")
			}
			sameCells(t, "after the drain", held, want)
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			sameCells(t, "after Close", held, want)
			again, err := Run(it)
			if err != nil {
				t.Fatal(err)
			}
			sameCells(t, "after a second Open and drain", held, want)
			sameCells(t, "second drain against the first", again.Rows, want)
			it2, err := NewCompiler(db, p.tp.p).Compile(plan)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(it2)
			if err != nil {
				t.Fatal(err)
			}
			sameCells(t, "after a second Compile and Run", held, want)
			sameCells(t, "second run against the first", fresh.Rows, want)
		})
	}
}

// TestConcurrentExecutionsShareOneDB is the server's World.execDB case:
// eight requests execute at once over one database, sets, MAT and
// UNNEST included. Run under -race; the pool and the tables are only
// read.
func TestConcurrentExecutionsShareOneDB(t *testing.T) {
	db, _ := testDB()
	p := newPlans()
	all := p.everyOperator()
	want := map[string][]data.Tuple{}
	for name, plan := range all {
		it, err := NewCompiler(db, p.tp.p).Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(it)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = cloneRows(res.Rows)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, plan := range all {
				it, err := NewCompiler(db, p.tp.p).Compile(plan)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := Run(it)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != len(want[name]) || len(Canonical(res)) != len(want[name]) {
					t.Errorf("%s: %d rows, alone %d", name, len(res.Rows), len(want[name]))
					return
				}
				for i, row := range res.Rows {
					for c := range row {
						if row[c] != want[name][i][c] {
							t.Errorf("%s: row %d differs from the run alone", name, i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStringsAndSetsAgainstNaive is the differential the generated data
// cannot give: string and set-valued selection, join and sort keys on
// the hand-built database, every join algorithm against the naive
// interpreter. Repeated sets and strings are one pool entry, so they
// must land in one hash chain and compare Equal.
func TestStringsAndSetsAgainstNaive(t *testing.T) {
	db := handDB(t)
	s1, s2 := db.MustTable("S1"), db.MustTable("S2")
	if a, b := s1.Rows[0][2], s1.Rows[3][2]; !a.Equal(b) || a.Hash() != b.Hash() || a != b {
		t.Fatalf("repeated set {1,2} interned twice: %v, %v", a, b)
	}
	if a, b := s1.Rows[0][2], s1.Rows[6][2]; a.Equal(b) {
		t.Fatal("{1,2} equals {2,1}: set equality is positional")
	}
	if a, b := s1.Rows[1][1], s2.Rows[0][1]; !a.Equal(b) || a.Hash() != b.Hash() {
		t.Fatalf("\"apple\" of two tables differs: %v, %v", a, b)
	}
	p := newPlans()
	tp := p.tp.p
	n1, n2 := core.A("S1", "name"), core.A("S2", "name")
	t1, t2 := core.A("S1", "tags"), core.A("S2", "tags")
	byName, byTags := core.EqAttr(n1, n2), core.EqAttr(t1, t2)
	apple := core.EqConst(n1, core.Str("apple"))
	afterFig := core.CmpConst(core.PredGt, n1, core.Str("fig"))
	cases := []struct {
		name     string
		rows     int
		logical  *core.Expr
		physical []*core.Expr
	}{
		{"string-join", 7, p.node("JOIN", tp.JP, byName, p.ret("S1"), p.ret("S2")), []*core.Expr{
			p.node("Hash_join", tp.JP, byName, p.scan("S1"), p.scan("S2")),
			p.node("Hash_join", tp.JP, byName, p.scan("S2"), p.scan("S1")),
			p.node("Nested_loops", tp.JP, byName, p.scan("S1"), p.scan("S2")),
			p.node("Merge_join", tp.JP, byName, p.sorted(p.scan("S1"), n1), p.sorted(p.scan("S2"), n2)),
		}},
		{"set-join", 7, p.node("JOIN", tp.JP, byTags, p.ret("S1"), p.ret("S2")), []*core.Expr{
			p.node("Hash_join", tp.JP, byTags, p.scan("S1"), p.scan("S2")),
			p.node("Nested_loops", tp.JP, byTags, p.scan("S2"), p.scan("S1")),
		}},
		{"string-select", 3, p.node("RET", tp.SP, apple, p.leaf("S1")), []*core.Expr{
			p.node("File_scan", tp.SP, apple, p.leaf("S1")),
			p.node("Filter", tp.SP, apple, p.scan("S1")),
			core.NewNode(p.ops["Index_scan"], p.tp.desc(func(d *core.Descriptor) {
				d.Set(tp.SP, apple)
				d.Set(p.tp.ord, core.OrderBy(n1))
			}), p.leaf("S1")),
		}},
		{"string-range", 3, p.node("RET", tp.SP, afterFig, p.leaf("S1")), []*core.Expr{
			p.node("File_scan", tp.SP, afterFig, p.leaf("S1")),
		}},
		{"sort-on-string-and-set", 8, p.node("SORT", p.tp.ord, core.OrderBy(n1, t1), p.ret("S1")), []*core.Expr{
			p.sorted(p.scan("S1"), n1, t1),
			p.sorted(p.scan("S1"), t1),
		}},
		{"mat-by-id-index", 6, p.node("MAT", tp.MA, core.Attrs{core.A("S1", "ref")}, p.ret("S1")), []*core.Expr{
			p.node("Materialize", tp.MA, core.Attrs{core.A("S1", "ref")}, p.scan("S1")),
		}},
		{"unnest-then-project", 12,
			p.node("PROJECT", tp.PA, core.Attrs{t1, n1}, p.node("UNNEST", tp.UA, core.Attrs{t1}, p.ret("S1"))),
			[]*core.Expr{p.node("Project", tp.PA, core.Attrs{t1, n1}, p.node("Flatten", tp.UA, core.Attrs{t1}, p.scan("S1")))}},
	}
	naive := &Naive{DB: db, P: tp}
	for _, c := range cases {
		want, err := naive.Eval(c.logical)
		if err != nil {
			t.Fatalf("%s: naive: %v", c.name, err)
		}
		if len(want.Rows) != c.rows {
			t.Errorf("%s: naive returns %d rows, counted by hand %d", c.name, len(want.Rows), c.rows)
		}
		for i, plan := range c.physical {
			it, err := NewCompiler(db, tp).Compile(plan)
			if err != nil {
				t.Fatalf("%s/%d: %v", c.name, i, err)
			}
			got, err := Run(it)
			if err != nil {
				t.Fatalf("%s/%d: %v", c.name, i, err)
			}
			if !SameBag(got, want) {
				onlyGot, onlyWant := DiffBags(got, want)
				t.Errorf("%s/%d: plan and naive differ:\n only plan  %v\n only naive %v", c.name, i, onlyGot, onlyWant)
			}
		}
	}
	// The sort orders strings by content, not by the order they were
	// interned in ("pear" came first).
	it, err := NewCompiler(db, tp).Compile(p.sorted(p.scan("S1"), n1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(it)
	if err != nil {
		t.Fatal(err)
	}
	if first, last := res.Pool.Format(res.Rows[0][1]), res.Pool.Format(res.Rows[7][1]); first != "apple" || last != "pear" {
		t.Errorf("sorted names run %s..%s, want apple..pear", first, last)
	}
}

// TestStringConstantsDoNotGrowThePool: the read path only looks strings
// up. A constant no row holds selects nothing through the index, orders
// correctly against every stored string in a comparison, and neither
// interns nor allocates.
func TestStringConstantsDoNotGrowThePool(t *testing.T) {
	db := handDB(t)
	p := newPlans()
	tp := p.tp.p
	name := core.A("S1", "name")
	indexScan := func(sel *core.Pred) *core.Expr {
		return core.NewNode(p.ops["Index_scan"], p.tp.desc(func(d *core.Descriptor) {
			d.Set(tp.SP, sel)
			d.Set(p.tp.ord, core.OrderBy(name))
		}), p.leaf("S1"))
	}
	for _, c := range []struct {
		plan *core.Expr
		rows int
	}{
		{indexScan(core.EqConst(name, core.Str("durian"))), 0},
		{indexScan(core.EqConst(name, core.Str("fig"))), 2},
		{p.node("File_scan", tp.SP, core.EqConst(name, core.Str("durian")), p.leaf("S1")), 0},
		{p.node("File_scan", tp.SP, core.CmpConst(core.PredLt, name, core.Str("durian")), p.leaf("S1")), 3},
	} {
		it, err := NewCompiler(db, tp).Compile(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != c.rows {
			t.Errorf("%v: %d rows, want %d", c.plan, len(res.Rows), c.rows)
		}
	}
	pool := db.Pool()
	if _, ok := pool.LookupStr("durian"); ok {
		t.Error("executing interned the constant")
	}
	fig := db.MustTable("S1").Rows[2][1]
	if n := testing.AllocsPerRun(10, func() {
		if _, ok := pool.LookupStr("durian"); ok {
			t.Error("found a string no row holds")
		}
		if c, ok := pool.Compare(fig, core.Str("durian")); !ok || c <= 0 {
			t.Errorf("fig against durian = %d, %v", c, ok)
		}
	}); n != 0 {
		t.Errorf("looking up and comparing an absent string allocates %v objects", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("interning into a frozen pool did not panic")
		}
	}()
	pool.Str("durian")
}

// TestFreeListBound: a free list keeps what it is given up to its
// bound in elements of capacity and drops the rest; take hands back the
// last buffer in at the length asked for, or makes one when that buffer
// is too short or the list is empty.
func TestFreeListBound(t *testing.T) {
	p := freeList[int32]{limit: 10}
	p.give(make([]int32, 4), make([]int32, 0), make([]int32, 2, 5), make([]int32, 3))
	if len(p.free) != 2 || p.held != 9 {
		t.Fatalf("holds %d buffers, %d elements; want 2 and 9", len(p.free), p.held)
	}
	if b := p.take(6); len(b) != 6 || p.held != 9 {
		t.Errorf("took len %d cap %d, %d left; want a new buffer of 6 and 9 left", len(b), cap(b), p.held)
	}
	if b := p.take(0); len(b) != 0 || cap(b) != 5 || p.held != 4 {
		t.Errorf("took len %d cap %d, %d left; want 0, 5 and 4", len(b), cap(b), p.held)
	}
	p.take(0)
	if b := p.take(3); len(b) != 3 || p.held != 0 {
		t.Errorf("empty list gave len %d, holds %d", len(b), p.held)
	}
}
