// Package catalog provides schema and statistics metadata for stored
// files (base relations / classes), selectivity estimation, and
// synthetic catalog generation for the paper's experiments.
//
// Cardinalities and distinct-value counts generated here are powers of
// two. That is deliberate: descriptor properties such as num_records are
// part of logical-expression identity in the memo, and power-of-two
// statistics keep cardinality arithmetic exact in float64 regardless of
// the order rule actions multiply in, so logically equal expressions
// produced along different rewrite paths compare bit-for-bit equal.
package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"prairie/internal/core"
)

// Attribute describes one attribute of a class.
type Attribute struct {
	Name string
	// Distinct is the number of distinct values (a power of two).
	Distinct float64
	// Ref names the class this attribute references, for object-oriented
	// pointer attributes traversed by MAT ("" for plain attributes).
	Ref string
	// SetValued marks a set-valued attribute, flattened by UNNEST.
	SetValued bool
	// SetSize is the average set size for set-valued attributes.
	SetSize float64
}

// Class describes a stored file: a base relation or a class.
type Class struct {
	Name string
	// Card is the number of tuples (a power of two).
	Card float64
	// TupleSize is the size of one tuple in bytes.
	TupleSize float64
	Attrs     []Attribute
	// Indexes lists the indexed attribute names. An index provides the
	// tuples ordered by that attribute and supports equality lookup.
	Indexes []string
	// attrs and indexes are the symbols AttrSet and IndexSet hand out,
	// interned once by Catalog.Add: edits to Attrs or Indexes after Add
	// take effect when the class is added again.
	attrs, indexes core.Attrs
}

// Attr returns the named attribute.
func (c *Class) Attr(name string) (*Attribute, bool) {
	for i := range c.Attrs {
		if c.Attrs[i].Name == name {
			return &c.Attrs[i], true
		}
	}
	return nil, false
}

// HasIndex reports whether attribute name is indexed.
func (c *Class) HasIndex(name string) bool {
	for _, ix := range c.Indexes {
		if ix == name {
			return true
		}
	}
	return false
}

// symbols interns the class's attributes and its indexed attributes.
func (c *Class) symbols() (attrs, indexes core.Attrs) {
	attrs = make(core.Attrs, len(c.Attrs))
	for i, a := range c.Attrs {
		attrs[i] = core.A(c.Name, a.Name)
	}
	indexes = make(core.Attrs, len(c.Indexes))
	for i, name := range c.Indexes {
		indexes[i] = core.A(c.Name, name)
	}
	return attrs, indexes
}

// AttrSet returns the class's attributes as a core attribute list.
func (c *Class) AttrSet() core.Attrs {
	if c.attrs == nil { // never added to a catalog
		attrs, _ := c.symbols()
		return attrs
	}
	return slices.Clone(c.attrs)
}

// IndexSet returns the indexed attributes as a core attribute list.
func (c *Class) IndexSet() core.Attrs {
	if c.indexes == nil {
		_, indexes := c.symbols()
		return indexes
	}
	return slices.Clone(c.indexes)
}

// Catalog is a registry of classes.
type Catalog struct {
	classes map[string]*Class
	// byAttr finds an attribute's description by its symbol.
	byAttr map[core.Attr]*Attribute
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{classes: make(map[string]*Class), byAttr: make(map[core.Attr]*Attribute)}
}

// Add registers a class, replacing any previous definition, and interns
// its attributes.
func (c *Catalog) Add(cl *Class) *Class {
	if old, ok := c.classes[cl.Name]; ok {
		for _, a := range old.attrs {
			delete(c.byAttr, a)
		}
	}
	cl.attrs, cl.indexes = cl.symbols()
	for i := len(cl.attrs) - 1; i >= 0; i-- { // backwards: the first of a repeated name wins, as in Class.Attr
		c.byAttr[cl.attrs[i]] = &cl.Attrs[i]
	}
	c.classes[cl.Name] = cl
	return cl
}

// Sym returns the symbol of class.attr without interning when the
// catalog describes it: query builders run on the request path.
func (c *Catalog) Sym(class, attr string) core.Attr {
	if cl, ok := c.classes[class]; ok {
		for _, a := range cl.attrs {
			if a.Name() == attr {
				return a
			}
		}
	}
	return core.A(class, attr)
}

// Attribute returns the description of a class attribute by its symbol.
func (c *Catalog) Attribute(a core.Attr) (*Attribute, bool) {
	at, ok := c.byAttr[a]
	return at, ok
}

// Class returns the named class.
func (c *Catalog) Class(name string) (*Class, bool) {
	cl, ok := c.classes[name]
	return cl, ok
}

// MustClass returns the named class, panicking if absent.
func (c *Catalog) MustClass(name string) *Class {
	cl, ok := c.classes[name]
	if !ok {
		panic("catalog: unknown class " + name)
	}
	return cl
}

// Names returns all class names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.classes))
	for n := range c.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of classes.
func (c *Catalog) Len() int { return len(c.classes) }

// Distinct returns the distinct-value count of an attribute, defaulting
// to a small power of two for unknown attributes.
func (c *Catalog) Distinct(a core.Attr) float64 {
	if at, ok := c.byAttr[a]; ok && at.Distinct > 0 {
		return at.Distinct
	}
	return 16
}

// Selectivity estimates the fraction of tuples satisfying a predicate
// (System R-style selectivity factors, with power-of-two values so that
// cardinality products stay exact):
//
//	attr = const   1/distinct(attr)
//	attr = attr    1/max(distinct(left), distinct(right))
//	attr < const   1/4 (and the other inequalities alike)
//	attr <> x      1/2
//	AND            product of factors
//	OR             the largest factor (optimistic upper bound)
//	NOT p          1/2
//	TRUE           1
func (c *Catalog) Selectivity(p *core.Pred) float64 {
	if p.IsTrue() {
		return 1
	}
	switch p.Op {
	case core.PredAnd:
		s := 1.0
		for _, k := range p.Kids {
			s *= c.Selectivity(k)
		}
		return s
	case core.PredOr:
		s := 0.0
		for _, k := range p.Kids {
			if f := c.Selectivity(k); f > s {
				s = f
			}
		}
		return s
	case core.PredNot:
		return 0.5
	case core.PredEq:
		if p.AttrCmp {
			dl, dr := c.Distinct(p.Left), c.Distinct(p.Right)
			if dr > dl {
				dl = dr
			}
			return 1 / dl
		}
		return 1 / c.Distinct(p.Left)
	case core.PredNe:
		return 0.5
	default: // inequalities
		return 0.25
	}
}

// JoinCard estimates the cardinality of a join given input cardinalities
// and the join predicate.
func (c *Catalog) JoinCard(left, right float64, pred *core.Pred) float64 {
	return left * right * c.Selectivity(pred)
}

// SelectCard estimates the cardinality after applying a selection.
func (c *Catalog) SelectCard(card float64, pred *core.Pred) float64 {
	return card * c.Selectivity(pred)
}

// ---------------------------------------------------------------------------
// Access-path cost model, shared by the OODB and relational optimizers
// and by both specification paths of each. Costs are abstract work
// units (tuples touched).

// FileScanCost reads every tuple of a stored file.
func FileScanCost(fileCard float64) float64 { return fileCard }

// IndexScanCost charges an index probe plus the matching tuples when the
// selection is an equality on the indexed attribute (usable), or a full
// sweep in index order otherwise.
func IndexScanCost(fileCard, outCard float64, usable bool) float64 {
	if usable {
		return 8 + 2*outCard
	}
	return 8 + fileCard
}

// MergeSortCost sorts card tuples produced at inCost; the cardinality
// is clamped to 1.
func MergeSortCost(inCost, card float64) float64 {
	n := math.Max(card, 1)
	return inCost + n*math.Log2(n+1)
}

// PickIndexAttr chooses the index an Index_scan uses: the requested
// order's leading attribute if indexed, else the attribute of an
// equality selection term if indexed, else the first index. It reports
// false when there is no index.
func PickIndexAttr(indexes core.Attrs, want core.Order, sel *core.Pred) (core.Attr, bool) {
	if len(indexes) == 0 {
		return core.Attr{}, false
	}
	if !want.IsDontCare() && len(want.By) > 0 && indexes.Contains(want.By[0]) {
		return want.By[0], true
	}
	for _, t := range sel.Conjuncts() {
		if t.Op == core.PredEq && !t.AttrCmp && indexes.Contains(t.Left) {
			return t.Left, true
		}
	}
	return indexes[0], true
}

// IndexUsable reports whether the index attribute ix is the target of
// an equality selection term, which makes the scan a cheap probe.
func IndexUsable(ix core.Attr, sel *core.Pred) bool {
	for _, t := range sel.Conjuncts() {
		if t.Op == core.PredEq && !t.AttrCmp && t.Left == ix {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Synthetic catalogs (Section 4.3 protocol)

// GenOptions configures synthetic catalog generation.
type GenOptions struct {
	// NumClasses is the number of base classes C1..Cn.
	NumClasses int
	// Seed drives the pseudo-random cardinality choice; each of the
	// paper's "5 query instances with varied cardinalities" uses a
	// different seed.
	Seed int64
	// Indexed adds one index per class. Per the paper's protocol, the
	// indexed attribute is the one referenced by the selection predicate
	// (attribute "b" of each class, see package qgen).
	Indexed bool
	// MinCardExp/MaxCardExp bound the cardinality exponent: cardinality
	// is 2^e with e uniform in [MinCardExp, MaxCardExp].
	MinCardExp, MaxCardExp int
	// Refs links each class to the next by a pointer attribute "ref"
	// (for MAT) and gives each class a set-valued attribute "tags"
	// (for UNNEST).
	Refs bool
}

// DefaultGen returns the generation options used by the experiments.
func DefaultGen(n int, seed int64, indexed bool) GenOptions {
	return GenOptions{
		NumClasses: n,
		Seed:       seed,
		Indexed:    indexed,
		MinCardExp: 6,
		MaxCardExp: 12,
		Refs:       true,
	}
}

// ClassName returns the canonical synthetic class name C<i> (1-based).
func ClassName(i int) string { return fmt.Sprintf("C%d", i) }

// SubClassName returns the companion sub-object class name S<i> that
// C<i>'s ref attribute points to.
func SubClassName(i int) string { return fmt.Sprintf("S%d", i) }

// Generate builds a synthetic catalog of n classes C1..Cn. Every class
// has attributes a (join attribute), b (selection attribute), c (payload);
// with Refs, also ref (pointer to the next class, wrapped around) and
// tags (set-valued). All statistics are powers of two.
func Generate(opts GenOptions) *Catalog {
	rng := rand.New(rand.NewSource(opts.Seed))
	cat := New()
	for i := 1; i <= opts.NumClasses; i++ {
		exp := opts.MinCardExp
		if opts.MaxCardExp > opts.MinCardExp {
			exp += rng.Intn(opts.MaxCardExp - opts.MinCardExp + 1)
		}
		card := float64(int64(1) << uint(exp))
		cl := &Class{
			Name:      ClassName(i),
			Card:      card,
			TupleSize: 64,
			Attrs: []Attribute{
				// id is the object identity (the row ordinal in the
				// stored file); ref attributes hold ids of the target
				// class, which is what MAT dereferences.
				{Name: "id", Distinct: card},
				{Name: "a", Distinct: pow2AtMost(card / 2)},
				{Name: "b", Distinct: pow2AtMost(card / 4)},
				{Name: "c", Distinct: pow2AtMost(card)},
			},
		}
		if opts.Refs {
			// Each class points to its own companion sub-object class
			// (the complex attribute MAT materializes, §4.3's E2/E4);
			// companions do not participate in joins, so materialized
			// schemas never duplicate join columns.
			sub := SubClassName(i)
			cl.Attrs = append(cl.Attrs,
				Attribute{Name: "ref", Distinct: pow2AtMost(card), Ref: sub},
				Attribute{Name: "tags", Distinct: pow2AtMost(card), SetValued: true, SetSize: 4},
			)
			subCard := pow2AtMost(card)
			cat.Add(&Class{
				Name: sub, Card: subCard, TupleSize: 32,
				Attrs: []Attribute{
					{Name: "id", Distinct: subCard},
					{Name: "x", Distinct: pow2AtMost(subCard / 2)},
					{Name: "y", Distinct: pow2AtMost(subCard / 4)},
				},
			})
		}
		if opts.Indexed {
			cl.Indexes = []string{"b"}
		}
		cat.Add(cl)
	}
	return cat
}

// pow2AtMost returns the largest power of two not exceeding v (at least 2).
func pow2AtMost(v float64) float64 {
	p := 2.0
	for p*2 <= v {
		p *= 2
	}
	return p
}
