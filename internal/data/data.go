// Package data provides the in-memory storage substrate: stored files
// (tables of tuples) generated from catalog metadata, with hash indexes.
// The paper's experiments never execute plans (they measure optimization
// time), but this repository's tests do: executing every plan of a
// query's search space and comparing results validates that the rule
// sets preserve semantics.
package data

import (
	"fmt"
	"math/rand"
	"sort"

	"prairie/internal/catalog"
	"prairie/internal/core"
)

// DatumKind enumerates column value kinds.
type DatumKind uint8

// Column value kinds.
const (
	DInt DatumKind = iota
	DString
	DRef // row ordinal in the referenced class
	DSet // set of integers (set-valued attribute)
)

// Datum is one column value of a tuple.
type Datum struct {
	Kind DatumKind
	I    int64
	S    string
	Set  []int64
}

// IntD returns an integer datum.
func IntD(v int64) Datum { return Datum{Kind: DInt, I: v} }

// StrD returns a string datum.
func StrD(v string) Datum { return Datum{Kind: DString, S: v} }

// RefD returns a reference datum (row ordinal in the target class).
func RefD(row int64) Datum { return Datum{Kind: DRef, I: row} }

// SetD returns a set-valued datum.
func SetD(vals ...int64) Datum { return Datum{Kind: DSet, Set: vals} }

// Equal compares two data.
func (d Datum) Equal(o Datum) bool {
	if d.Kind != o.Kind {
		// Ints and refs compare by value across kinds (a join on a ref
		// attribute compares ordinals).
		if (d.Kind == DInt || d.Kind == DRef) && (o.Kind == DInt || o.Kind == DRef) {
			return d.I == o.I
		}
		return false
	}
	switch d.Kind {
	case DInt, DRef:
		return d.I == o.I
	case DString:
		return d.S == o.S
	default:
		if len(d.Set) != len(o.Set) {
			return false
		}
		for i := range d.Set {
			if d.Set[i] != o.Set[i] {
				return false
			}
		}
		return true
	}
}

// Less orders two data (ints before strings; sets are unordered and
// compare by first element for determinism).
func (d Datum) Less(o Datum) bool {
	if d.Kind != o.Kind {
		return d.Kind < o.Kind
	}
	switch d.Kind {
	case DInt, DRef:
		return d.I < o.I
	case DString:
		return d.S < o.S
	default:
		return len(d.Set) > 0 && len(o.Set) > 0 && d.Set[0] < o.Set[0]
	}
}

// Hash returns a hash consistent with Equal.
func (d Datum) Hash() uint64 {
	var h uint64 = 14695981039346656037
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	switch d.Kind {
	case DInt, DRef:
		mix(uint64(d.I))
	case DString:
		for i := 0; i < len(d.S); i++ {
			h ^= uint64(d.S[i])
			h *= 1099511628211
		}
	default:
		for _, v := range d.Set {
			mix(uint64(v))
		}
	}
	return h
}

// String renders the datum.
func (d Datum) String() string {
	switch d.Kind {
	case DInt:
		return fmt.Sprintf("%d", d.I)
	case DRef:
		return fmt.Sprintf("@%d", d.I)
	case DString:
		return d.S
	default:
		return fmt.Sprintf("%v", d.Set)
	}
}

// CompareToValue compares a datum against a descriptor constant (used by
// predicate evaluation); it returns -1/0/+1 and reports comparability.
func (d Datum) CompareToValue(v core.Value) (int, bool) {
	switch x := v.(type) {
	case core.Int:
		if d.Kind != DInt && d.Kind != DRef {
			return 0, false
		}
		switch {
		case d.I < int64(x):
			return -1, true
		case d.I > int64(x):
			return 1, true
		}
		return 0, true
	case core.Float:
		if d.Kind != DInt && d.Kind != DRef {
			return 0, false
		}
		f := float64(d.I)
		switch {
		case f < float64(x):
			return -1, true
		case f > float64(x):
			return 1, true
		}
		return 0, true
	case core.Str:
		if d.Kind != DString {
			return 0, false
		}
		switch {
		case d.S < string(x):
			return -1, true
		case d.S > string(x):
			return 1, true
		}
		return 0, true
	}
	return 0, false
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

// Table is a stored file: schema, rows, and hash indexes.
type Table struct {
	Class   *catalog.Class
	Schema  Schema
	Rows    []Tuple
	indexes map[string]map[uint64][]int
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
	ix := t.indexes[attr]
	if ix == nil {
		return nil
	}
	col, ok := t.Col(attr)
	if !ok {
		return nil
	}
	var out []int
	for _, row := range ix[d.Hash()] {
		if t.Rows[row][col].Equal(d) {
			out = append(out, row)
		}
	}
	return out
}

// HasIndex reports whether the attribute has a hash index.
func (t *Table) HasIndex(attr string) bool { return t.indexes[attr] != nil }

// buildIndex constructs the hash index for an attribute.
func (t *Table) buildIndex(attr string) {
	col, ok := t.Col(attr)
	if !ok {
		return
	}
	m := make(map[uint64][]int, len(t.Rows))
	for i, row := range t.Rows {
		h := row[col].Hash()
		m[h] = append(m[h], i)
	}
	if t.indexes == nil {
		t.indexes = map[string]map[uint64][]int{}
	}
	t.indexes[attr] = m
}

// DB is a set of populated tables.
type DB struct {
	tables map[string]*Table
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
// that observed selectivities resemble the estimates.
func Populate(cat *catalog.Catalog, seed int64, maxRows int) *DB {
	rng := rand.New(rand.NewSource(seed))
	db := &DB{tables: map[string]*Table{}}
	names := cat.Names()
	for _, name := range names {
		cl := cat.MustClass(name)
		n := int(cl.Card)
		if maxRows > 0 && n > maxRows {
			n = maxRows
		}
		t := &Table{Class: cl, Schema: Schema(cl.AttrSet())}
		for i := 0; i < n; i++ {
			row := make(Tuple, len(cl.Attrs))
			for j, a := range cl.Attrs {
				switch {
				case a.Name == "id":
					// Object identity: the row ordinal.
					row[j] = IntD(int64(i))
				case a.Ref != "":
					target := cat.MustClass(a.Ref)
					limit := int64(target.Card)
					if maxRows > 0 && limit > int64(maxRows) {
						limit = int64(maxRows)
					}
					row[j] = RefD(rng.Int63n(limit))
				case a.SetValued:
					set := make([]int64, int(a.SetSize))
					for k := range set {
						set[k] = rng.Int63n(int64(a.Distinct))
					}
					row[j] = SetD(set...)
				default:
					row[j] = IntD(rng.Int63n(int64(a.Distinct)))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		for _, ixAttr := range cl.Indexes {
			t.buildIndex(ixAttr)
		}
		db.tables[name] = t
	}
	return db
}
