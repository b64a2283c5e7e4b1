package data

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"prairie/internal/catalog"
	"prairie/internal/core"
)

func testDB(t *testing.T) (*DB, *catalog.Catalog) {
	t.Helper()
	cat := catalog.Generate(catalog.DefaultGen(3, 42, true))
	return Populate(cat, 7, 64), cat
}

func TestDatumBasics(t *testing.T) {
	p := NewDB().Pool()
	StrD, SetD := p.Str, p.Set
	if !IntD(3).Equal(IntD(3)) || IntD(3).Equal(IntD(4)) {
		t.Error("int equality")
	}
	if !IntD(3).Equal(RefD(3)) {
		t.Error("int and ref with same value should compare equal")
	}
	if IntD(3).Equal(StrD("3")) {
		t.Error("cross-kind equality")
	}
	// Interned out of order: the order is the strings', not the ids'.
	if b, a := StrD("b"), StrD("a"); !p.Less(a, b) || p.Less(b, a) {
		t.Error("string ordering")
	}
	if !p.Less(IntD(1), IntD(2)) || !(*Pool)(nil).Less(IntD(1), IntD(2)) {
		t.Error("int ordering")
	}
	if !SetD(1, 2).Equal(SetD(1, 2)) || SetD(1, 2).Equal(SetD(2, 1)) {
		t.Error("set equality is positional")
	}
	if p.Format(IntD(3)) != "3" || p.Format(RefD(3)) != "@3" || p.Format(StrD("x")) != "x" || p.Format(SetD(1, 2)) != "[1 2]" {
		t.Error("Format renderings")
	}
}

// TestDatumIsACell: at most 16 bytes and nothing in it the collector has
// to follow, so a buffer of rows is allocated noscan.
func TestDatumIsACell(t *testing.T) {
	if size := unsafe.Sizeof(Datum{}); size > 16 {
		t.Errorf("Datum is %d bytes, want at most 16", size)
	}
	typ := reflect.TypeOf(Datum{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Int64, reflect.Uint8:
		default:
			t.Errorf("Datum.%s is a %v: only fixed-size integers hold no pointer", typ.Field(i).Name, k)
		}
	}
}

func TestDatumHashEqualConsistency(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		return IntD(v).Hash() == IntD(v).Hash() && IntD(v).Hash() == RefD(v).Hash()
	}, nil); err != nil {
		t.Error(err)
	}
	p := NewDB().Pool()
	if err := quick.Check(func(s string) bool {
		return p.Str(s).Hash() == p.Str(s).Hash() && p.Str(s).Equal(p.Str(s))
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDatumCompareToValue(t *testing.T) {
	p := NewDB().Pool()
	StrD, SetD := p.Str, p.Set
	cases := []struct {
		d    Datum
		v    core.Value
		want int
		ok   bool
	}{
		{IntD(3), core.Int(3), 0, true},
		{IntD(2), core.Int(3), -1, true},
		{IntD(4), core.Int(3), 1, true},
		{IntD(4), core.Float(4), 0, true},
		{StrD("a"), core.Str("b"), -1, true},
		{StrD("a"), core.Int(1), 0, false},
		{IntD(1), core.Str("1"), 0, false},
		{SetD(1), core.Int(1), 0, false},
	}
	for _, c := range cases {
		got, ok := p.Compare(c.d, c.v)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d, %v", c.d, c.v, got, ok, c.want, c.ok)
		}
	}
}

// TestDatumSetOrdering pins the deterministic-but-partial order on
// set-valued data: sets compare by first element, and an empty set ties
// with everything (Less is false both ways), which sorting treats as
// equal — never as a panic or an unstable order.
func TestDatumSetOrdering(t *testing.T) {
	p := NewDB().Pool()
	SetD := p.Set
	if !p.Less(SetD(1, 9), SetD(2, 0)) || p.Less(SetD(2, 0), SetD(1, 9)) {
		t.Error("sets must order by first element")
	}
	if p.Less(SetD(1, 5), SetD(1, 2)) || p.Less(SetD(1, 2), SetD(1, 5)) {
		t.Error("sets sharing a first element tie")
	}
	if p.Less(SetD(), SetD()) || p.Less(SetD(), SetD(1)) || p.Less(SetD(1), SetD()) {
		t.Error("empty sets tie with every set")
	}
	if !SetD().Equal(SetD()) {
		t.Error("empty sets are equal")
	}
	if SetD().Equal(SetD(1)) || SetD(1).Equal(SetD()) {
		t.Error("empty set equals only the empty set")
	}
	// Cross-kind: a set never equals a scalar, and kind decides Less.
	if SetD(3).Equal(IntD(3)) || IntD(3).Equal(SetD(3)) {
		t.Error("set vs int cross-kind equality")
	}
	if !p.Less(IntD(9), SetD(1)) || p.Less(SetD(1), IntD(9)) {
		t.Error("cross-kind order is by kind, ints before sets")
	}
}

// TestDatumHashEdgeCases: Hash must stay consistent with Equal on the
// corners — int/ref cross-kind equality, positional set equality, and
// empty values hashing without panicking.
func TestDatumHashEdgeCases(t *testing.T) {
	p := NewDB().Pool()
	StrD, SetD := p.Str, p.Set
	if IntD(7).Hash() != RefD(7).Hash() {
		t.Error("equal int and ref must hash alike")
	}
	if SetD(1, 2).Hash() != SetD(1, 2).Hash() {
		t.Error("set hash not deterministic")
	}
	if SetD(1, 2).Hash() == SetD(2, 1).Hash() {
		t.Error("positionally-different sets should hash apart")
	}
	// Empty set, empty string, and the zero int are pairwise unequal;
	// their hashes need not differ, but must be stable and safe.
	for _, d := range []Datum{SetD(), StrD(""), IntD(0)} {
		if d.Hash() != d.Hash() {
			t.Errorf("%v: unstable hash", d)
		}
	}
	if SetD().Equal(StrD("")) || StrD("").Equal(IntD(0)) {
		t.Error("empty values of different kinds are not equal")
	}
}

// TestDatumCompareToValueRefAndEdges: refs compare against numeric
// constants exactly like ints (a pointer is its target ordinal), and
// unsupported constant kinds report incomparable instead of guessing.
func TestDatumCompareToValueRefAndEdges(t *testing.T) {
	p := NewDB().Pool()
	StrD, SetD := p.Str, p.Set
	cases := []struct {
		d    Datum
		v    core.Value
		want int
		ok   bool
	}{
		{RefD(3), core.Int(3), 0, true},
		{RefD(2), core.Int(3), -1, true},
		{RefD(4), core.Int(3), 1, true},
		{RefD(2), core.Float(2.5), -1, true},
		{RefD(3), core.Float(2.5), 1, true},
		{RefD(3), core.Str("3"), 0, false},
		{SetD(1, 2), core.Float(1), 0, false},
		{SetD(), core.Int(0), 0, false},
		{StrD(""), core.Str(""), 0, true},
		{IntD(0), core.Bool(true), 0, false},
		{IntD(0), core.Cost(1), 0, false},
		{RefD(0), core.DontCareOrder, 0, false},
	}
	for _, c := range cases {
		got, ok := p.Compare(c.d, c.v)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d, %v", c.d, c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestSchemaOps(t *testing.T) {
	s := Schema{core.A("C1", "a"), core.A("C1", "b")}
	if c, ok := s.Col(core.A("C1", "b")); !ok || c != 1 {
		t.Error("Col lookup")
	}
	if _, ok := s.Col(core.A("C2", "a")); ok {
		t.Error("Col found missing attr")
	}
	s2 := s.Concat(Schema{core.A("C2", "a")})
	if len(s2) != 3 || s2[2] != core.A("C2", "a") {
		t.Error("Concat")
	}
}

func TestPopulate(t *testing.T) {
	db, cat := testDB(t)
	if len(db.Names()) != 6 { // 3 classes + 3 companion classes
		t.Fatalf("tables = %v", db.Names())
	}
	for _, name := range []string{"C1", "C2", "C3"} {
		tab := db.MustTable(name)
		cl := cat.MustClass(name)
		wantRows := int(cl.Card)
		if wantRows > 64 {
			wantRows = 64
		}
		if len(tab.Rows) != wantRows {
			t.Errorf("%s has %d rows, want %d", name, len(tab.Rows), wantRows)
		}
		idCol, ok := tab.Schema.Col(core.A(name, "id"))
		if !ok {
			t.Fatalf("%s missing id column", name)
		}
		refCol, _ := tab.Schema.Col(core.A(name, "ref"))
		tagsCol, _ := tab.Schema.Col(core.A(name, "tags"))
		for i, row := range tab.Rows {
			if row[idCol].I != int64(i) {
				t.Errorf("%s row %d id = %v", name, i, row[idCol])
			}
			if row[refCol].Kind != DRef || row[refCol].I >= 64 {
				t.Errorf("%s row %d ref out of range: %v", name, i, row[refCol])
			}
			if row[tagsCol].Kind != DSet || len(db.Pool().SetOf(row[tagsCol])) != 4 {
				t.Errorf("%s row %d tags = %v", name, i, row[tagsCol])
			}
		}
		if !tab.HasIndex("b") {
			t.Errorf("%s missing index on b", name)
		}
	}
	// Determinism.
	db2 := Populate(cat, 7, 64)
	tab, tab2 := db.MustTable("C1"), db2.MustTable("C1")
	for i := range tab.Rows {
		for j := range tab.Rows[i] {
			if !tab.Rows[i][j].Equal(tab2.Rows[i][j]) {
				t.Fatal("population not deterministic")
			}
		}
	}
	if _, ok := db.Table("C9"); ok {
		t.Error("found missing table")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable should panic")
		}
	}()
	db.MustTable("C9")
}

func TestIndexLookup(t *testing.T) {
	db, _ := testDB(t)
	tab := db.MustTable("C1")
	bCol, _ := tab.Schema.Col(core.A("C1", "b"))
	// Every indexed value must be findable, and every hit must match.
	seen := 0
	for _, row := range tab.Rows {
		hits := tab.Index("b", row[bCol])
		found := false
		for _, h := range hits {
			if !tab.Rows[h][bCol].Equal(row[bCol]) {
				t.Fatalf("index hit %d does not match %v", h, row[bCol])
			}
			found = true
		}
		if !found {
			t.Fatalf("row value %v not found via index", row[bCol])
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("no rows")
	}
	if got := tab.Index("a", IntD(0)); got != nil {
		t.Error("lookup on unindexed attribute should return nil")
	}
	if got := tab.Index("b", IntD(1<<40)); len(got) != 0 {
		t.Error("absent value returned hits")
	}
}

// TestHashIndexChains: every ordinal is reachable from its hash, chains
// run in ascending order, and an empty index answers -1.
func TestHashIndexChains(t *testing.T) {
	keys := []uint64{7, 3, 7, 11, 3, 7, 1 << 40}
	ix := NewHashIndex(len(keys), func(i int) uint64 { return keys[i] })
	for _, k := range keys {
		var got []int
		for i, prev := ix.First(k), -1; i >= 0; i, prev = ix.Next(i), i {
			if i <= prev {
				t.Fatalf("chain of %d not ascending: %d after %d", k, i, prev)
			}
			if keys[i] == k {
				got = append(got, i)
			}
		}
		want := 0
		for _, x := range keys {
			if x == k {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("hash %d reaches ordinals %v, want %d of them", k, got, want)
		}
	}
	if empty := NewHashIndex(0, nil); empty.First(7) != -1 {
		t.Error("empty index has a chain")
	}
}

// TestHashIndexInGivenStorage: an index built into arrays that hold
// garbage chains exactly as a fresh one does, uses the arrays when they
// are long enough and new ones when they are not.
func TestHashIndexInGivenStorage(t *testing.T) {
	keys := []uint64{7, 3, 7, 11, 3, 7, 1 << 40}
	hash := func(i int) uint64 { return keys[i] }
	want := NewHashIndex(len(keys), hash)
	garbage := func(n int) []int32 {
		a := make([]int32, n)
		for i := range a {
			a[i] = 0x5e171e1
		}
		return a
	}
	slots, next := garbage(64), garbage(64)
	ix := NewHashIndexIn(slots[:3], next[:0], len(keys), hash)
	gotSlots, gotNext := ix.Chains()
	if &gotSlots[0] != &slots[0] || &gotNext[0] != &next[0] {
		t.Error("index did not build in the given arrays")
	}
	for _, k := range append(keys, 5) {
		for i, j := ix.First(k), want.First(k); i >= 0 || j >= 0; i, j = ix.Next(i), want.Next(j) {
			if i != j {
				t.Fatalf("chain of %d reads %d, fresh index %d", k, i, j)
			}
		}
	}
	short := NewHashIndexIn(garbage(1), nil, len(keys), hash)
	if s, n := short.Chains(); len(s) != 16 || len(n) != len(keys) {
		t.Errorf("short storage gave chains of %d and %d, want 16 and %d", len(s), len(n), len(keys))
	}
}

// TestRowByID: the ordinal test serves tables whose ids are their row
// ordinals (no id index is built), the id index the others, where the
// first row of a repeated id wins; pointers to nobody find nothing.
func TestRowByID(t *testing.T) {
	db, _ := testDB(t)
	tab := db.MustTable("C1")
	if tab.ids != nil {
		t.Error("id index built for ordinal ids")
	}
	if row, ok := tab.RowByID(RefD(5)); !ok || row != 5 {
		t.Errorf("RowByID(@5) = %d, %v", row, ok)
	}
	if _, ok := tab.RowByID(RefD(1 << 20)); ok {
		t.Error("out-of-range pointer found a row")
	}
	cat := catalog.New()
	cl := cat.Add(&catalog.Class{Name: "H", Card: 4, Attrs: []catalog.Attribute{{Name: "id", Distinct: 4}, {Name: "v", Distinct: 4}}})
	hand := NewDB()
	h := hand.AddTable(cl, []Tuple{{IntD(9), IntD(0)}, {IntD(1), IntD(1)}, {IntD(9), IntD(2)}, {IntD(0), IntD(3)}})
	noPointer := hand.Pool().Set()
	hand.Freeze()
	for id, want := range map[int64]int{9: 0, 1: 1, 0: 3} {
		if row, ok := h.RowByID(RefD(id)); !ok || row != want {
			t.Errorf("RowByID(@%d) = %d, %v; want %d", id, row, ok, want)
		}
	}
	if _, ok := h.RowByID(RefD(2)); ok {
		t.Error("id 2 is nobody's, ordinal 2 is not a match")
	}
	if _, ok := h.RowByID(noPointer); ok {
		t.Error("a set is not a pointer")
	}
}
