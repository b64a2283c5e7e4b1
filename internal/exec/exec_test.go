package exec

import (
	"strings"
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/data"
)

func testDB() (*data.DB, *catalog.Catalog) {
	cat := catalog.Generate(catalog.GenOptions{
		NumClasses: 3, Seed: 11, Indexed: true,
		MinCardExp: 5, MaxCardExp: 6, Refs: true,
	})
	return data.Populate(cat, 3, 64), cat
}

// tinyProps builds a property set matching the standard builders.
type tinyProps struct {
	ps  *core.PropertySet
	p   Props
	ord core.PropID
}

func newTinyProps() *tinyProps {
	ps := core.NewPropertySet()
	t := &tinyProps{ps: ps}
	t.ord = ps.Define("tuple_order", core.KindOrder)
	jp := ps.Define("join_predicate", core.KindPred)
	sp := ps.Define("selection_predicate", core.KindPred)
	pa := ps.Define("projected_attributes", core.KindAttrs)
	ma := ps.Define("mat_attribute", core.KindAttrs)
	ua := ps.Define("unnest_attribute", core.KindAttrs)
	t.p = Props{Ord: t.ord, JP: jp, SP: sp, PA: pa, MA: ma, UA: ua}
	return t
}

func (tp *tinyProps) desc(set func(d *core.Descriptor)) *core.Descriptor {
	d := core.NewDescriptor(tp.ps)
	if set != nil {
		set(d)
	}
	return d
}

// algebra for building plan trees directly.
func planAlgebra() map[string]*core.Operation {
	ops := map[string]*core.Operation{}
	for _, spec := range []struct {
		name  string
		arity int
	}{
		{"File_scan", 1}, {"Index_scan", 1}, {"Filter", 1}, {"Project", 1},
		{"Nested_loops", 2}, {"Hash_join", 2}, {"Merge_join", 2},
		{"Merge_sort", 1}, {"Materialize", 1}, {"Flatten", 1}, {"Null", 1},
	} {
		ops[spec.name] = &core.Operation{Name: spec.name, Kind: core.Algorithm, Arity: spec.arity}
	}
	return ops
}

func TestFileScanWithSelection(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	ops := planAlgebra()
	c := NewCompiler(db, tp.p)
	sel := core.EqConst(core.A("C1", "b"), core.Int(1))
	plan := core.NewNode(ops["File_scan"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.p.SP, sel) }),
		core.NewLeaf("C1", tp.desc(nil)))
	it, err := c.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(it)
	if err != nil {
		t.Fatal(err)
	}
	bCol, _ := res.Schema.Col(core.A("C1", "b"))
	if len(res.Rows) == 0 {
		t.Fatal("selection matched nothing; pick a different constant")
	}
	for _, row := range res.Rows {
		if !row[bCol].Equal(data.IntD(1)) {
			t.Errorf("selection leaked row with b=%v", row[bCol])
		}
	}
}

func TestIndexScanOrderAndEquivalence(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	ops := planAlgebra()
	c := NewCompiler(db, tp.p)
	sel := core.EqConst(core.A("C1", "b"), core.Int(1))
	mk := func(alg string, withOrder bool) *core.Expr {
		return core.NewNode(ops[alg],
			tp.desc(func(d *core.Descriptor) {
				d.Set(tp.p.SP, sel)
				if withOrder {
					d.Set(tp.ord, core.OrderBy(core.A("C1", "b")))
				}
			}),
			core.NewLeaf("C1", tp.desc(nil)))
	}
	iScan, err := c.Compile(mk("Index_scan", true))
	if err != nil {
		t.Fatal(err)
	}
	ires, err := Run(iScan)
	if err != nil {
		t.Fatal(err)
	}
	fScan, _ := c.Compile(mk("File_scan", false))
	fres, err := Run(fScan)
	if err != nil {
		t.Fatal(err)
	}
	if !SameBag(ires, fres) {
		t.Error("index scan and file scan disagree")
	}
	// Index scan without an order is a compile error.
	if _, err := c.Compile(mk("Index_scan", false)); err == nil {
		t.Error("index scan without order accepted")
	}
}

func TestJoinAlgorithmsAgree(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	ops := planAlgebra()
	c := NewCompiler(db, tp.p)
	pred := core.EqAttr(core.A("C1", "a"), core.A("C2", "a"))
	scan := func(file string) *core.Expr {
		return core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf(file, tp.desc(nil)))
	}
	sorted := func(file string, by core.Attr) *core.Expr {
		return core.NewNode(ops["Merge_sort"],
			tp.desc(func(d *core.Descriptor) { d.Set(tp.ord, core.OrderBy(by)) }),
			scan(file))
	}
	jd := func() *core.Descriptor {
		return tp.desc(func(d *core.Descriptor) { d.Set(tp.p.JP, pred) })
	}
	plans := map[string]*core.Expr{
		"nl":    core.NewNode(ops["Nested_loops"], jd(), scan("C1"), scan("C2")),
		"hash":  core.NewNode(ops["Hash_join"], jd(), scan("C1"), scan("C2")),
		"merge": core.NewNode(ops["Merge_join"], jd(), sorted("C1", core.A("C1", "a")), sorted("C2", core.A("C2", "a"))),
		"nlrev": core.NewNode(ops["Nested_loops"], jd(), scan("C2"), scan("C1")),
	}
	var results []*Result
	for name, plan := range plans {
		it, err := c.Compile(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Run(it)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: empty join result (bad workload)", name)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !SameBag(results[0], results[i]) {
			t.Errorf("join algorithm %d disagrees with 0", i)
		}
	}
}

func TestMergeJoinDetectsUnsortedInput(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	ops := planAlgebra()
	c := NewCompiler(db, tp.p)
	pred := core.EqAttr(core.A("C1", "a"), core.A("C2", "a"))
	scan := func(file string) *core.Expr {
		return core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf(file, tp.desc(nil)))
	}
	plan := core.NewNode(ops["Merge_join"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.p.JP, pred) }),
		scan("C1"), scan("C2"))
	it, err := c.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(it); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Errorf("unsorted merge join input not detected: %v", err)
	}
}

func TestSortFilterProjectNull(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	ops := planAlgebra()
	c := NewCompiler(db, tp.p)
	base := core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf("C1", tp.desc(nil)))
	plan := core.NewNode(ops["Project"],
		tp.desc(func(d *core.Descriptor) {
			d.Set(tp.p.PA, core.Attrs{core.A("C1", "a"), core.A("C1", "b")})
		}),
		core.NewNode(ops["Null"], tp.desc(nil),
			core.NewNode(ops["Merge_sort"],
				tp.desc(func(d *core.Descriptor) { d.Set(tp.ord, core.OrderBy(core.A("C1", "a"), core.A("C1", "b"))) }),
				core.NewNode(ops["Filter"],
					tp.desc(func(d *core.Descriptor) {
						d.Set(tp.p.SP, core.CmpConst(core.PredLt, core.A("C1", "a"), core.Int(8)))
					}),
					base))))
	it, err := c.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema) != 2 {
		t.Fatalf("projected schema = %v", res.Schema)
	}
	for i, row := range res.Rows {
		if row[0].I >= 8 {
			t.Errorf("filter leaked a=%v", row[0])
		}
		if i > 0 {
			prev := res.Rows[i-1]
			if res.Pool.Less(row[0], prev[0]) {
				t.Error("sort order violated")
			}
			if row[0].Equal(prev[0]) && res.Pool.Less(row[1], prev[1]) {
				t.Error("secondary sort order violated")
			}
		}
	}
}

func TestMaterializeAndFlatten(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	ops := planAlgebra()
	c := NewCompiler(db, tp.p)
	scan := core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf("C1", tp.desc(nil)))
	mat := core.NewNode(ops["Materialize"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.p.MA, core.Attrs{core.A("C1", "ref")}) }),
		scan)
	fl := core.NewNode(ops["Flatten"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.p.UA, core.Attrs{core.A("C1", "tags")}) }),
		mat)
	it, err := c.Compile(fl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(it)
	if err != nil {
		t.Fatal(err)
	}
	n1 := len(db.MustTable("C1").Rows)
	// Every C1 row dereferences to exactly one C2 row and flattens to 4
	// tag elements.
	if len(res.Rows) != n1*4 {
		t.Errorf("rows = %d, want %d", len(res.Rows), n1*4)
	}
	// The schema gained the companion class's attributes.
	if _, ok := res.Schema.Col(core.A("S1", "x")); !ok {
		t.Errorf("materialized schema missing S1.x: %v", res.Schema)
	}
	tagCol, _ := res.Schema.Col(core.A("C1", "tags"))
	for _, row := range res.Rows {
		if row[tagCol].Kind != data.DInt {
			t.Fatal("flatten left a set value")
		}
	}
}

func TestNaiveAgainstExecutor(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	ops := planAlgebra()
	c := NewCompiler(db, tp.p)
	naive := &Naive{DB: db, P: tp.p}

	// Logical tree: SELECT(JOIN(RET(C1), RET(C2))) with sel and join preds.
	lops := map[string]*core.Operation{
		"RET":    {Name: "RET", Kind: core.Operator, Arity: 1},
		"JOIN":   {Name: "JOIN", Kind: core.Operator, Arity: 2},
		"SELECT": {Name: "SELECT", Kind: core.Operator, Arity: 1},
	}
	jp := core.EqAttr(core.A("C1", "a"), core.A("C2", "a"))
	sp := core.CmpConst(core.PredLt, core.A("C1", "b"), core.Int(4))
	logical := core.NewNode(lops["SELECT"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.p.SP, sp) }),
		core.NewNode(lops["JOIN"],
			tp.desc(func(d *core.Descriptor) { d.Set(tp.p.JP, jp) }),
			core.NewNode(lops["RET"], tp.desc(nil), core.NewLeaf("C1", tp.desc(nil))),
			core.NewNode(lops["RET"], tp.desc(nil), core.NewLeaf("C2", tp.desc(nil)))))
	want, err := naive.Eval(logical)
	if err != nil {
		t.Fatal(err)
	}

	// Equivalent physical plan: Filter(Hash_join(File_scan, File_scan)).
	plan := core.NewNode(ops["Filter"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.p.SP, sp) }),
		core.NewNode(ops["Hash_join"],
			tp.desc(func(d *core.Descriptor) { d.Set(tp.p.JP, jp) }),
			core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf("C1", tp.desc(nil))),
			core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf("C2", tp.desc(nil)))))
	it, err := c.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("empty expected result; workload too selective")
	}
	if !SameBag(want, got) {
		t.Errorf("plan disagrees with naive evaluation: %d vs %d rows", len(got.Rows), len(want.Rows))
	}
}

func TestNaiveMatAndUnnest(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	naive := &Naive{DB: db, P: tp.p}
	lops := map[string]*core.Operation{
		"RET":    {Name: "RET", Kind: core.Operator, Arity: 1},
		"MAT":    {Name: "MAT", Kind: core.Operator, Arity: 1},
		"UNNEST": {Name: "UNNEST", Kind: core.Operator, Arity: 1},
	}
	tree := core.NewNode(lops["UNNEST"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.p.UA, core.Attrs{core.A("C1", "tags")}) }),
		core.NewNode(lops["MAT"],
			tp.desc(func(d *core.Descriptor) { d.Set(tp.p.MA, core.Attrs{core.A("C1", "ref")}) }),
			core.NewNode(lops["RET"], tp.desc(nil), core.NewLeaf("C1", tp.desc(nil)))))
	res, err := naive.Eval(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(db.MustTable("C1").Rows)*4 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestCompileErrors(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	ops := planAlgebra()
	c := NewCompiler(db, tp.p)
	if _, err := c.Compile(core.NewLeaf("C1", tp.desc(nil))); err == nil {
		t.Error("bare leaf accepted")
	}
	unknown := &core.Operation{Name: "Mystery", Kind: core.Algorithm, Arity: 1}
	mystery := core.NewNode(unknown, tp.desc(nil), core.NewLeaf("C1", tp.desc(nil)))
	for _, stats := range []*ExecStats{nil, {}} {
		c.Stats = stats
		_, err := c.Compile(mystery)
		if want := "exec: no builder for algorithm Mystery"; err == nil || err.Error() != want {
			t.Errorf("unknown algorithm (stats %v): error %v, want %q", stats != nil, err, want)
		}
		// An unknown algorithm below a known one fails the whole plan.
		_, err = c.Compile(core.NewNode(ops["Filter"], tp.desc(nil), mystery))
		if err == nil || !strings.Contains(err.Error(), "no builder for algorithm Mystery") {
			t.Errorf("unknown input algorithm (stats %v): error %v", stats != nil, err)
		}
	}
	c.Stats = nil
	bad := core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf("NOPE", tp.desc(nil)))
	if _, err := c.Compile(bad); err == nil {
		t.Error("unknown table accepted")
	}
	ms := core.NewNode(ops["Merge_sort"], tp.desc(nil),
		core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf("C1", tp.desc(nil))))
	if _, err := c.Compile(ms); err == nil {
		t.Error("merge sort without order accepted")
	}
}

func TestCanonicalAndSameBag(t *testing.T) {
	s1 := data.Schema{core.A("C1", "a"), core.A("C2", "a")}
	s2 := data.Schema{core.A("C2", "a"), core.A("C1", "a")}
	a := &Result{Schema: s1, Rows: []data.Tuple{{data.IntD(1), data.IntD(2)}, {data.IntD(3), data.IntD(4)}}}
	b := &Result{Schema: s2, Rows: []data.Tuple{{data.IntD(4), data.IntD(3)}, {data.IntD(2), data.IntD(1)}}}
	if !SameBag(a, b) {
		t.Error("column/row permutations should compare equal")
	}
	c := &Result{Schema: s1, Rows: []data.Tuple{{data.IntD(1), data.IntD(2)}}}
	if SameBag(a, c) {
		t.Error("different cardinalities compared equal")
	}
	d := &Result{Schema: s1, Rows: []data.Tuple{{data.IntD(1), data.IntD(2)}, {data.IntD(3), data.IntD(5)}}}
	if SameBag(a, d) {
		t.Error("different values compared equal")
	}
}

// evalPred binds p to the schema and evaluates it on one row of numbers.
func evalPred(p *core.Pred, s data.Schema, row data.Tuple) (bool, error) {
	b := bindPred(p, s)
	return b.eval(nil, row, nil)
}

func TestEvalPredOperators(t *testing.T) {
	s := data.Schema{core.A("C1", "a"), core.A("C1", "b")}
	row := data.Tuple{data.IntD(3), data.IntD(7)}
	x, y := core.A("C1", "a"), core.A("C1", "b")
	cases := []struct {
		p    *core.Pred
		want bool
	}{
		{core.TruePred, true},
		{core.EqConst(x, core.Int(3)), true},
		{core.EqConst(x, core.Int(4)), false},
		{core.CmpConst(core.PredNe, x, core.Int(4)), true},
		{core.CmpConst(core.PredLt, x, core.Int(4)), true},
		{core.CmpConst(core.PredLe, x, core.Int(3)), true},
		{core.CmpConst(core.PredGt, x, core.Int(3)), false},
		{core.CmpConst(core.PredGe, x, core.Int(3)), true},
		{core.EqAttr(x, y), false},
		{core.And(core.EqConst(x, core.Int(3)), core.EqConst(y, core.Int(7))), true},
		{core.Or(core.EqConst(x, core.Int(9)), core.EqConst(y, core.Int(7))), true},
		{core.Not(core.EqConst(x, core.Int(3))), false},
	}
	for _, c := range cases {
		got, err := evalPred(c.p, s, row)
		if err != nil || got != c.want {
			t.Errorf("evalPred(%v) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if _, err := evalPred(core.EqConst(core.A("C9", "x"), core.Int(1)), s, row); err == nil {
		t.Error("missing attribute accepted")
	}
}

// TestEvalPredNotPropagatesError: NOT over a failing operand used to
// return true alongside the error; it must return false, err so callers
// that consult the boolean first cannot treat a broken predicate as a
// match.
func TestEvalPredNotPropagatesError(t *testing.T) {
	s := data.Schema{core.A("C1", "a")}
	row := data.Tuple{data.IntD(3)}
	bad := core.Not(core.EqConst(core.A("C9", "zz"), core.Int(1)))
	ok, err := evalPred(bad, s, row)
	if err == nil {
		t.Fatal("NOT over a missing attribute did not error")
	}
	if ok {
		t.Error("NOT(<error>) evaluated to true alongside the error")
	}
	// Nested: NOT(NOT(<error>)) must not flip back to a silent match.
	ok, err = evalPred(core.Not(bad), s, row)
	if err == nil || ok {
		t.Errorf("nested NOT over error: ok=%v err=%v", ok, err)
	}
}

func TestNaiveProjectAndSort(t *testing.T) {
	db, _ := testDB()
	tp := newTinyProps()
	naive := &Naive{DB: db, P: tp.p}
	lops := map[string]*core.Operation{
		"RET":     {Name: "RET", Kind: core.Operator, Arity: 1},
		"PROJECT": {Name: "PROJECT", Kind: core.Operator, Arity: 1},
		"SORT":    {Name: "SORT", Kind: core.Operator, Arity: 1},
	}
	tree := core.NewNode(lops["SORT"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.ord, core.OrderBy(core.A("C1", "a"))) }),
		core.NewNode(lops["PROJECT"],
			tp.desc(func(d *core.Descriptor) {
				d.Set(tp.p.PA, core.Attrs{core.A("C1", "a")})
			}),
			core.NewNode(lops["RET"], tp.desc(nil), core.NewLeaf("C1", tp.desc(nil)))))
	res, err := naive.Eval(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema) != 1 {
		t.Fatalf("schema = %v", res.Schema)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Pool.Less(res.Rows[i][0], res.Rows[i-1][0]) {
			t.Fatal("naive sort order violated")
		}
	}
	// SORT with DONT_CARE leaves rows as-is.
	tree2 := core.NewNode(lops["SORT"], tp.desc(nil),
		core.NewNode(lops["RET"], tp.desc(nil), core.NewLeaf("C1", tp.desc(nil))))
	res2, err := naive.Eval(tree2)
	if err != nil || len(res2.Rows) == 0 {
		t.Fatalf("res2 = %v err = %v", res2, err)
	}
	// Unknown operator is an error.
	bogus := core.NewNode(&core.Operation{Name: "BOGUS", Kind: core.Operator, Arity: 1},
		tp.desc(nil), core.NewLeaf("C1", tp.desc(nil)))
	if _, err := naive.Eval(bogus); err == nil {
		t.Error("unknown operator accepted")
	}
	// Unknown table is an error.
	missing := core.NewNode(lops["RET"], tp.desc(nil), core.NewLeaf("NOPE", tp.desc(nil)))
	if _, err := naive.Eval(missing); err == nil {
		t.Error("unknown stored file accepted")
	}
}

func TestHashJoinResidualPredicate(t *testing.T) {
	// A conjunction with a second, non-equi term: the hash join probes
	// on the equi term and filters on the rest.
	db, _ := testDB()
	tp := newTinyProps()
	ops := planAlgebra()
	c := NewCompiler(db, tp.p)
	pred := core.And(
		core.EqAttr(core.A("C1", "a"), core.A("C2", "a")),
		core.CmpConst(core.PredLt, core.A("C1", "b"), core.Int(8)))
	scan := func(file string) *core.Expr {
		return core.NewNode(ops["File_scan"], tp.desc(nil), core.NewLeaf(file, tp.desc(nil)))
	}
	hj := core.NewNode(ops["Hash_join"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.p.JP, pred) }),
		scan("C1"), scan("C2"))
	nl := core.NewNode(ops["Nested_loops"],
		tp.desc(func(d *core.Descriptor) { d.Set(tp.p.JP, pred) }),
		scan("C1"), scan("C2"))
	it1, err := c.Compile(hj)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(it1)
	if err != nil {
		t.Fatal(err)
	}
	it2, _ := c.Compile(nl)
	r2, err := Run(it2)
	if err != nil {
		t.Fatal(err)
	}
	if !SameBag(r1, r2) {
		t.Error("hash join with residual disagrees with nested loops")
	}
	bCol, _ := r1.Schema.Col(core.A("C1", "b"))
	for _, row := range r1.Rows {
		if row[bCol].I >= 8 {
			t.Fatal("residual predicate leaked")
		}
	}
	// A join predicate without any equi term cannot hash.
	noEqui := core.NewNode(ops["Hash_join"],
		tp.desc(func(d *core.Descriptor) {
			d.Set(tp.p.JP, core.CmpConst(core.PredLt, core.A("C1", "b"), core.Int(8)))
		}),
		scan("C1"), scan("C2"))
	it3, err := c.Compile(noEqui)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(it3); err == nil {
		t.Error("hash join without equi term accepted")
	}
}

func TestScanIterIndexEqTermKinds(t *testing.T) {
	ix := core.A("C1", "b")
	pool := data.NewDB().Pool()
	x := pool.Str("x")
	if eq, ok := indexEqTerm(core.EqConst(ix, core.Int(3)), ix, pool); !ok || eq != data.IntD(3) {
		t.Error("int constant not recognized")
	}
	if eq, ok := indexEqTerm(core.EqConst(ix, core.Str("x")), ix, pool); !ok || eq != x {
		t.Error("string constant not recognized")
	}
	if _, ok := indexEqTerm(core.EqConst(ix, core.Str("y")), ix, pool); ok {
		t.Error("a string no row holds has a stored form")
	}
	if _, ok := indexEqTerm(core.EqConst(core.A("C1", "a"), core.Int(3)), ix, pool); ok {
		t.Error("wrong attribute matched")
	}
	if _, ok := indexEqTerm(core.TruePred, ix, pool); ok {
		t.Error("TRUE matched")
	}
}
