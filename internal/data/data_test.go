package data

import (
	"testing"
	"testing/quick"

	"prairie/internal/catalog"
	"prairie/internal/core"
)

func testDB(t *testing.T) (*DB, *catalog.Catalog) {
	t.Helper()
	cat := catalog.Generate(catalog.DefaultGen(3, 42, true))
	return Populate(cat, 7, 64), cat
}

func TestDatumBasics(t *testing.T) {
	if !IntD(3).Equal(IntD(3)) || IntD(3).Equal(IntD(4)) {
		t.Error("int equality")
	}
	if !IntD(3).Equal(RefD(3)) {
		t.Error("int and ref with same value should compare equal")
	}
	if IntD(3).Equal(StrD("3")) {
		t.Error("cross-kind equality")
	}
	if !StrD("a").Less(StrD("b")) || StrD("b").Less(StrD("a")) {
		t.Error("string ordering")
	}
	if !IntD(1).Less(IntD(2)) {
		t.Error("int ordering")
	}
	if !SetD(1, 2).Equal(SetD(1, 2)) || SetD(1, 2).Equal(SetD(2, 1)) {
		t.Error("set equality is positional")
	}
	if IntD(3).String() != "3" || RefD(3).String() != "@3" || StrD("x").String() != "x" {
		t.Error("String renderings")
	}
}

func TestDatumHashEqualConsistency(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		return IntD(v).Hash() == IntD(v).Hash() && IntD(v).Hash() == RefD(v).Hash()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(s string) bool {
		return StrD(s).Hash() == StrD(s).Hash()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDatumCompareToValue(t *testing.T) {
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
		got, ok := c.d.CompareToValue(c.v)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CompareToValue(%v, %v) = %d, %v; want %d, %v", c.d, c.v, got, ok, c.want, c.ok)
		}
	}
}

// TestDatumSetOrdering pins the deterministic-but-partial order on
// set-valued data: sets compare by first element, and an empty set ties
// with everything (Less is false both ways), which sorting treats as
// equal — never as a panic or an unstable order.
func TestDatumSetOrdering(t *testing.T) {
	if !SetD(1, 9).Less(SetD(2, 0)) || SetD(2, 0).Less(SetD(1, 9)) {
		t.Error("sets must order by first element")
	}
	if SetD(1, 5).Less(SetD(1, 2)) || SetD(1, 2).Less(SetD(1, 5)) {
		t.Error("sets sharing a first element tie")
	}
	if SetD().Less(SetD()) || SetD().Less(SetD(1)) || SetD(1).Less(SetD()) {
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
	if !IntD(9).Less(SetD(1)) || SetD(1).Less(IntD(9)) {
		t.Error("cross-kind order is by kind, ints before sets")
	}
}

// TestDatumHashEdgeCases: Hash must stay consistent with Equal on the
// corners — int/ref cross-kind equality, positional set equality, and
// empty values hashing without panicking.
func TestDatumHashEdgeCases(t *testing.T) {
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
		got, ok := c.d.CompareToValue(c.v)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CompareToValue(%v, %v) = %d, %v; want %d, %v", c.d, c.v, got, ok, c.want, c.ok)
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
			if row[tagsCol].Kind != DSet || len(row[tagsCol].Set) != 4 {
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
