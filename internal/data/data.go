// Package data provides the in-memory storage substrate: stored files
// (tables of tuples) generated from catalog metadata, with hash indexes.
// The paper's experiments never execute plans (they measure optimization
// time), but this repository's tests do: executing every plan of a
// query's search space and comparing results validates that the rule
// sets preserve semantics.
package data

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"prairie/internal/catalog"
	"prairie/internal/core"
)

// DatumKind enumerates column value kinds.
type DatumKind uint8

// Column value kinds. The numeric kinds are the even ones.
const (
	DInt DatumKind = iota
	DString
	DRef // row ordinal in the referenced class
	DSet // set of integers (set-valued attribute)
)

func (k DatumKind) numeric() bool { return k&1 == 0 }

// Datum is one cell of a tuple: a kind and eight bytes, no Go pointer,
// so a row is a run of 16-byte cells the collector never scans. I is an
// int's value, a ref's target ordinal, and for strings and sets the id
// the owning DB's Pool interned the content under: equal content has one
// id, so Equal and Hash need no pool (nor compare across databases).
type Datum struct {
	I    int64
	Kind DatumKind
}

// IntD returns an integer datum.
func IntD(v int64) Datum { return Datum{Kind: DInt, I: v} }

// RefD returns a reference datum (row ordinal in the target class).
func RefD(row int64) Datum { return Datum{Kind: DRef, I: row} }

// Equal compares two data. Ints and refs compare by value across kinds
// (a join on a ref attribute compares ordinals).
func (d Datum) Equal(o Datum) bool {
	return d.I == o.I && (d.Kind == o.Kind || d.Kind.numeric() && o.Kind.numeric())
}

// Hash returns a hash consistent with Equal.
func (d Datum) Hash() uint64 {
	h := uint64(d.I)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// Pool holds what does not fit a cell: the strings and set values of one
// DB, each stored once. It grows while the DB is filled and is read-only
// from Freeze on, so executions sharing a DB only read it. Numeric data
// never reach it: a nil *Pool serves streams without strings or sets.
type Pool struct {
	strs   []string
	strIDs map[string]int64
	elems  []int64 // every set's elements, back to back
	ends   []int   // set id's elements are elems[ends[id-1]:ends[id]]
	setIDs map[string]int64
	key    []byte
	frozen bool
}

func (p *Pool) mustBeOpen() {
	if p.frozen {
		panic("data: pool grown after Freeze")
	}
}

// Str interns a string.
func (p *Pool) Str(s string) Datum {
	id, ok := p.strIDs[s]
	if !ok {
		p.mustBeOpen()
		id = int64(len(p.strs))
		p.strs = append(p.strs, s)
		p.strIDs[s] = id
	}
	return Datum{Kind: DString, I: id}
}

// LookupStr returns the datum of a string some row holds; one the pool
// has never seen equals no stored value, and is not interned to say so.
func (p *Pool) LookupStr(s string) (Datum, bool) {
	id, ok := p.strIDs[s]
	return Datum{Kind: DString, I: id}, ok
}

// Set interns a set value; equality is positional, so {1,2} and {2,1}
// are two sets.
func (p *Pool) Set(vals ...int64) Datum {
	p.key = p.key[:0]
	for _, v := range vals {
		p.key = binary.LittleEndian.AppendUint64(p.key, uint64(v))
	}
	id, ok := p.setIDs[string(p.key)]
	if !ok {
		p.mustBeOpen()
		id = int64(len(p.ends))
		p.elems = append(p.elems, vals...)
		p.ends = append(p.ends, len(p.elems))
		p.setIDs[string(p.key)] = id
	}
	return Datum{Kind: DSet, I: id}
}

// StrOf returns the content of a string datum.
func (p *Pool) StrOf(d Datum) string { return p.strs[d.I] }

// SetOf returns the elements of a set datum; the slice is the pool's.
func (p *Pool) SetOf(d Datum) []int64 {
	lo := 0
	if d.I > 0 {
		lo = p.ends[d.I-1]
	}
	hi := p.ends[d.I]
	return p.elems[lo:hi:hi]
}

// Less orders two data: by kind first, numbers and strings by value.
// Sets are unordered and compare by first element for determinism, an
// empty set tying with every set.
func (p *Pool) Less(a, b Datum) bool {
	if a.Kind == b.Kind && a.Kind.numeric() {
		return a.I < b.I
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Kind == DString {
		return p.StrOf(a) < p.StrOf(b)
	}
	x, y := p.SetOf(a), p.SetOf(b)
	return len(x) > 0 && len(y) > 0 && x[0] < y[0]
}

// Compare compares a datum against a descriptor constant (used by
// predicate evaluation); it returns -1/0/+1 and reports comparability.
func (p *Pool) Compare(d Datum, v core.Value) (int, bool) {
	switch x := v.(type) {
	case core.Int:
		if d.Kind.numeric() {
			return cmp.Compare(d.I, int64(x)), true
		}
	case core.Float:
		if d.Kind.numeric() {
			return cmp.Compare(float64(d.I), float64(x)), true
		}
	case core.Str:
		if d.Kind == DString {
			return strings.Compare(p.StrOf(d), string(x)), true
		}
	}
	return 0, false
}

// Format renders a datum.
func (p *Pool) Format(d Datum) string {
	switch d.Kind {
	case DInt:
		return strconv.FormatInt(d.I, 10)
	case DRef:
		return "@" + strconv.FormatInt(d.I, 10)
	case DString:
		return p.StrOf(d)
	default:
		return fmt.Sprint(p.SetOf(d))
	}
}

// Tuple is one row of a stream, aligned with its Schema.
type Tuple []Datum

// Schema names a stream's columns.
type Schema []core.Attr

// Col returns the position of an attribute in the schema.
func (s Schema) Col(a core.Attr) (int, bool) {
	for i, x := range s {
		if x == a {
			return i, true
		}
	}
	return -1, false
}

// Concat returns the concatenation of two schemas.
func (s Schema) Concat(o Schema) Schema {
	out := make(Schema, 0, len(s)+len(o))
	out = append(out, s...)
	out = append(out, o...)
	return out
}

// HashIndex maps a hash to the ordinals stored under it: int32 chains
// threaded through two pointer-free slices. A chain may mix hashes that
// share a slot, so callers confirm every ordinal with Equal.
type HashIndex struct {
	slots []int32 // hash&mask -> first ordinal+1; 0 ends a chain
	next  []int32 // ordinal -> next ordinal+1 of its chain
}

// NewHashIndex indexes ordinals 0..n-1 by hash(i); every chain lists its
// ordinals in ascending order.
func NewHashIndex(n int, hash func(i int) uint64) HashIndex {
	return NewHashIndexIn(nil, nil, n, hash)
}

// NewHashIndexIn is NewHashIndex building its chains in slots and next
// where their capacity allows (what they hold is overwritten) and in new
// arrays where it does not; Chains returns the arrays it used.
func NewHashIndexIn(slots, next []int32, n int, hash func(i int) uint64) HashIndex {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	ix := HashIndex{slots: resize(slots, size), next: resize(next, n)}
	clear(ix.slots)
	for i := n - 1; i >= 0; i-- {
		s := &ix.slots[hash(i)&uint64(size-1)]
		ix.next[i] = *s
		*s = int32(i + 1)
	}
	return ix
}

// resize returns a of length n, reallocated if its capacity is short.
func resize(a []int32, n int) []int32 {
	if cap(a) < n {
		return make([]int32, n)
	}
	return a[:n]
}

// Chains returns the index's two arrays, for a caller that recycles them
// into a later NewHashIndexIn once the index is no longer read.
func (ix HashIndex) Chains() (slots, next []int32) { return ix.slots, ix.next }

// First returns the first ordinal of h's chain, -1 if it is empty.
func (ix HashIndex) First(h uint64) int { return int(ix.slots[h&uint64(len(ix.slots)-1)]) - 1 }

// Next returns the ordinal after i in its chain, -1 at the end.
func (ix HashIndex) Next(i int) int { return int(ix.next[i]) - 1 }

// Table is a stored file: schema, rows, and hash indexes. Rows are views
// into one cell buffer and are never written after the table is added.
type Table struct {
	Class   *catalog.Class
	Schema  Schema
	Rows    []Tuple
	indexes map[string]HashIndex
	idCol   int
	// ids finds rows by object identity where RowByID's ordinal test
	// cannot: it is nil for a table whose every id is its row ordinal.
	ids map[int64]int
}

// Col returns the column of the table's own attribute name. It compares
// names, so the executor interns nothing.
func (t *Table) Col(name string) (int, bool) {
	for i, a := range t.Schema {
		if a.Name() == name && a.Rel() == t.Class.Name {
			return i, true
		}
	}
	return -1, false
}

// Index returns the row ordinals whose attribute equals the datum, using
// the hash index (which must exist; see HasIndex).
func (t *Table) Index(attr string, d Datum) []int {
	ix, ok := t.indexes[attr]
	if !ok {
		return nil
	}
	col, _ := t.Col(attr)
	var out []int
	for row := ix.First(d.Hash()); row >= 0; row = ix.Next(row) {
		if t.Rows[row][col].Equal(d) {
			out = append(out, row)
		}
	}
	return out
}

// HasIndex reports whether the attribute has a hash index.
func (t *Table) HasIndex(attr string) bool { _, ok := t.indexes[attr]; return ok }

// RowByID returns the ordinal of the row whose id attribute equals the
// pointer (MAT's dereference): the pointer's own value where objects are
// stored with id == row ordinal, else what the id index says.
func (t *Table) RowByID(ptr Datum) (int, bool) {
	if t.idCol < 0 || !ptr.Kind.numeric() {
		return 0, false
	}
	if ptr.I >= 0 && ptr.I < int64(len(t.Rows)) && t.Rows[ptr.I][t.idCol].Equal(ptr) {
		return int(ptr.I), true
	}
	row, ok := t.ids[ptr.I]
	return row, ok
}

// DB is a set of populated tables and the pool their cells refer to.
type DB struct {
	tables map[string]*Table
	pool   *Pool
}

// NewDB returns an empty database to fill with AddTable, then Freeze.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}, pool: &Pool{strIDs: map[string]int64{}, setIDs: map[string]int64{}}}
}

// Pool returns the pool the database's strings and sets live in.
func (db *DB) Pool() *Pool { return db.pool }

// Freeze makes the pool read-only: from here on the database is safe to
// share between goroutines, and interning panics.
func (db *DB) Freeze() {
	db.pool.frozen = true
	db.pool.setIDs, db.pool.key = nil, nil
}

// AddTable stores a copy of rows (strings and sets interned in this
// database's pool) as the class's table, indexed as the class says.
func (db *DB) AddTable(cl *catalog.Class, rows []Tuple) *Table {
	width := len(cl.Attrs)
	cells := make([]Datum, 0, len(rows)*width)
	for _, r := range rows {
		cells = append(cells, r...)
	}
	return db.add(cl, cells)
}

func (db *DB) add(cl *catalog.Class, cells []Datum) *Table {
	t := &Table{Class: cl, Schema: Schema(cl.AttrSet()), indexes: map[string]HashIndex{}}
	if width := len(cl.Attrs); width > 0 {
		t.Rows = make([]Tuple, len(cells)/width)
		for i := range t.Rows {
			t.Rows[i] = cells[i*width : (i+1)*width : (i+1)*width]
		}
	}
	for _, attr := range cl.Indexes {
		if col, ok := t.Col(attr); ok {
			t.indexes[attr] = NewHashIndex(len(t.Rows), func(i int) uint64 { return t.Rows[i][col].Hash() })
		}
	}
	idCol, ok := t.Col("id")
	if !ok {
		idCol = -1
	}
	t.idCol = idCol
	for i := len(t.Rows) - 1; ok && i >= 0; i-- {
		// Built backwards so the first row of a repeated id wins, and
		// only from the last row that is not where its id says.
		if id := t.Rows[i][idCol]; id.Kind.numeric() && (t.ids != nil || id.I != int64(i)) {
			if t.ids == nil {
				t.ids = make(map[int64]int, i+1)
			}
			t.ids[id.I] = i
		}
	}
	db.tables[cl.Name] = t
	return t
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// MustTable returns the named table, panicking if absent.
func (db *DB) MustTable(name string) *Table {
	t, ok := db.tables[name]
	if !ok {
		panic("data: unknown table " + name)
	}
	return t
}

// Names returns the table names, sorted.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Populate generates deterministic synthetic rows for every class in the
// catalog, scaled down to at most maxRows per table (the optimizer works
// from catalog statistics; execution only needs representative data).
// Attribute value distributions respect the catalog's distinct counts so
// that observed selectivities resemble the estimates. The database comes
// back frozen.
func Populate(cat *catalog.Catalog, seed int64, maxRows int) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := NewDB()
	var set []int64
	for _, name := range cat.Names() {
		cl := cat.MustClass(name)
		n := int(cl.Card)
		if maxRows > 0 && n > maxRows {
			n = maxRows
		}
		cells := make([]Datum, 0, n*len(cl.Attrs))
		for i := 0; i < n; i++ {
			for _, a := range cl.Attrs {
				switch {
				case a.Name == "id":
					// Object identity: the row ordinal.
					cells = append(cells, IntD(int64(i)))
				case a.Ref != "":
					target := cat.MustClass(a.Ref)
					limit := int64(target.Card)
					if maxRows > 0 && limit > int64(maxRows) {
						limit = int64(maxRows)
					}
					cells = append(cells, RefD(rng.Int63n(limit)))
				case a.SetValued:
					set = set[:0]
					for k := 0; k < int(a.SetSize); k++ {
						set = append(set, rng.Int63n(int64(a.Distinct)))
					}
					cells = append(cells, db.pool.Set(set...))
				default:
					cells = append(cells, IntD(rng.Int63n(int64(a.Distinct))))
				}
			}
		}
		db.add(cl, cells)
	}
	db.Freeze()
	return db
}
