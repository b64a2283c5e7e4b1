// Package core implements the Prairie model of Das & Batory (ICDE 1995):
// operators and algorithms as first-class objects, uniform descriptors
// (property lists) on every operator-tree node, transformation rules
// (T-rules) and implementation rules (I-rules), and the Null algorithm.
//
// The package is deliberately engine-agnostic: it defines the algebra that
// describes a search space and cost model, but no search strategy. The
// companion package internal/volcano supplies a Volcano-style top-down
// search engine, and internal/p2v translates core rule sets into that
// engine's format, mirroring the paper's P2V pre-processor.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Kind enumerates the types a descriptor property (and hence a Value) can
// have. The kinds cover the properties of the paper's Table 2: predicates,
// tuple orders, attribute lists, scalar statistics, and cost.
type Kind uint8

// Property kinds.
const (
	KindInvalid Kind = iota
	KindInt          // 64-bit integer
	KindFloat        // statistics such as num_records, tuple_size
	KindBool         // flags
	KindString       // symbolic values
	KindOrder        // tuple order of a stream (possibly DONT_CARE)
	KindAttrs        // attribute list/set
	KindPred         // selection or join predicate
	KindCost         // estimated cost; identified specially by P2V
)

// String returns the DSL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindOrder:
		return "order"
	case KindAttrs:
		return "attrs"
	case KindPred:
		return "pred"
	case KindCost:
		return "cost"
	default:
		return "invalid"
	}
}

// KindByName maps a DSL type name to its Kind. It reports false for an
// unknown name.
func KindByName(name string) (Kind, bool) {
	for _, k := range []Kind{KindInt, KindFloat, KindBool, KindString, KindOrder, KindAttrs, KindPred, KindCost} {
		if k.String() == name {
			return k, true
		}
	}
	return KindInvalid, false
}

// Value is the interface implemented by every descriptor property value.
// Values are immutable: rule actions replace values, they never mutate
// them in place. Equal and Hash must agree (equal values hash equally),
// because the optimizer engine uses them for duplicate expression
// detection and winner memoization.
type Value interface {
	Kind() Kind
	Equal(Value) bool
	Hash() uint64
	String() string
	// IsDontCare reports whether the value is the distinguished
	// "don't care" of its kind (the paper's DONT_CARE tuple order,
	// generalized to every kind).
	IsDontCare() bool
}

// defaults holds each kind's zero value, boxed once: converting
// DontCareOrder to a Value allocates, and the memo's identity tests read
// unset order properties constantly.
var defaults = [...]Value{
	KindInt: Int(0), KindFloat: Float(0), KindBool: Bool(false), KindString: Str(""),
	KindOrder: DontCareOrder, KindAttrs: Attrs(nil), KindPred: TruePred, KindCost: Cost(0),
}

// DefaultValue returns the zero value for a kind. Descriptor.Get returns
// it for unset properties so rule actions are total functions.
func DefaultValue(k Kind) Value {
	if int(k) < len(defaults) {
		return defaults[k]
	}
	return nil
}

// ---------------------------------------------------------------------------
// Scalar values

// Int is an integer property value.
type Int int64

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

// Equal implements Value.
func (v Int) Equal(o Value) bool { w, ok := o.(Int); return ok && v == w }

// Hash implements Value.
func (v Int) Hash() uint64 { return hashUint64(uint64(v)) ^ 0x11 }

// String implements Value.
func (v Int) String() string { return fmt.Sprintf("%d", int64(v)) }

// IsDontCare implements Value.
func (Int) IsDontCare() bool { return false }

// Float is a floating-point property value (cardinalities, sizes).
type Float float64

// Kind implements Value.
func (Float) Kind() Kind { return KindFloat }

// Equal implements Value.
func (v Float) Equal(o Value) bool { w, ok := o.(Float); return ok && v == w }

// Hash implements Value.
func (v Float) Hash() uint64 { return hashUint64(math.Float64bits(float64(v))) ^ 0x22 }

// String implements Value.
func (v Float) String() string { return fmt.Sprintf("%g", float64(v)) }

// IsDontCare implements Value.
func (Float) IsDontCare() bool { return false }

// Bool is a boolean property value.
type Bool bool

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

// Equal implements Value.
func (v Bool) Equal(o Value) bool { w, ok := o.(Bool); return ok && v == w }

// Hash implements Value.
func (v Bool) Hash() uint64 {
	if v {
		return 0x9e3779b97f4a7c15
	}
	return 0x33
}

// String implements Value.
func (v Bool) String() string { return fmt.Sprintf("%t", bool(v)) }

// IsDontCare implements Value.
func (Bool) IsDontCare() bool { return false }

// Str is a string property value.
type Str string

// Kind implements Value.
func (Str) Kind() Kind { return KindString }

// Equal implements Value.
func (v Str) Equal(o Value) bool { w, ok := o.(Str); return ok && v == w }

// Hash implements Value.
func (v Str) Hash() uint64 { return hashString(string(v)) ^ 0x44 }

// String implements Value.
func (v Str) String() string { return string(v) }

// IsDontCare implements Value.
func (Str) IsDontCare() bool { return false }

// Cost is an estimated execution cost. It has its own kind so that the
// P2V pre-processor can classify cost properties automatically ("a
// property with a type COST is classified as a cost property", §3.1).
type Cost float64

// Kind implements Value.
func (Cost) Kind() Kind { return KindCost }

// Equal implements Value.
func (v Cost) Equal(o Value) bool { w, ok := o.(Cost); return ok && v == w }

// Hash implements Value.
func (v Cost) Hash() uint64 { return hashUint64(math.Float64bits(float64(v))) ^ 0x55 }

// String implements Value.
func (v Cost) String() string { return fmt.Sprintf("%g", float64(v)) }

// IsDontCare implements Value.
func (Cost) IsDontCare() bool { return false }

// ---------------------------------------------------------------------------
// Attributes

// Attr names an attribute of a stored file or stream: the base relation
// or class it originates from and its name within it. It is a symbol —
// an index into the process's attribute table (attr.go) — so attributes
// compare as integers; the zero Attr is "no attribute". A symbol's number
// depends on interning order: it is never rendered, sorted on or sent.
type Attr struct{ sym uint32 }

// Rel returns the relation or class the attribute originates from.
func (a Attr) Rel() string { return a.entry().rel }

// Name returns the attribute's name within its relation.
func (a Attr) Name() string { return a.entry().name }

// String returns "Rel.Name".
func (a Attr) String() string { e := a.entry(); return e.rel + "." + e.name }

// Compare orders attributes by (Rel, Name), the order every sorted
// rendering uses.
func (a Attr) Compare(b Attr) int {
	x, y := a.entry(), b.entry()
	return cmp.Or(cmp.Compare(x.rel, y.rel), cmp.Compare(x.name, y.name))
}

// Attrs is an attribute list. It is treated as a set by Equal and Hash
// (order-insensitive), which matches how the paper's rules use attribute
// lists (e.g., "union").
type Attrs []Attr

// Kind implements Value.
func (Attrs) Kind() Kind { return KindAttrs }

// Equal implements Value; it is set equality.
func (v Attrs) Equal(o Value) bool {
	w, ok := o.(Attrs)
	if !ok || len(v) != len(w) {
		return false
	}
	return v.ContainsAll(w) && w.ContainsAll(v)
}

// Hash implements Value; it is order-insensitive.
func (v Attrs) Hash() uint64 {
	var h uint64 = 0x66
	tab := attrEntries()
	for _, a := range v {
		h ^= tab[a.sym].relHash*31 ^ tab[a.sym].nameHash // commutative combine
	}
	return h
}

// String implements Value.
func (v Attrs) String() string {
	parts := make([]string, len(v))
	for i, a := range v {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// IsDontCare implements Value.
func (Attrs) IsDontCare() bool { return false }

// Contains reports whether a is in the list.
func (v Attrs) Contains(a Attr) bool {
	for _, b := range v {
		if a == b {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every attribute of w is in v.
func (v Attrs) ContainsAll(w Attrs) bool {
	for _, a := range w {
		if !v.Contains(a) {
			return false
		}
	}
	return true
}

// Union returns the set union of v and w, preserving v's order first.
func (v Attrs) Union(w Attrs) Attrs {
	out := make(Attrs, 0, len(v)+len(w))
	out = append(out, v...)
	for _, a := range w {
		if !out.Contains(a) {
			out = append(out, a)
		}
	}
	return out
}

// Intersect returns the attributes present in both v and w.
func (v Attrs) Intersect(w Attrs) Attrs {
	var out Attrs
	for _, a := range v {
		if w.Contains(a) {
			out = append(out, a)
		}
	}
	return out
}

// Minus returns the attributes of v not present in w.
func (v Attrs) Minus(w Attrs) Attrs {
	var out Attrs
	for _, a := range v {
		if !w.Contains(a) {
			out = append(out, a)
		}
	}
	return out
}

// Sorted returns a copy sorted lexicographically; useful for stable output.
func (v Attrs) Sorted() Attrs {
	out := slices.Clone(v)
	slices.SortFunc(out, Attr.Compare)
	return out
}

// ---------------------------------------------------------------------------
// Tuple orders

// Order describes the tuple order of a stream: the sequence of attributes
// the stream is sorted on, or the distinguished DONT_CARE order meaning
// "any order is acceptable" (Table 2).
type Order struct {
	dontCare bool
	By       []Attr
}

// DontCareOrder is the paper's DONT_CARE tuple order.
var DontCareOrder = Order{dontCare: true}

// OrderBy returns an order sorted on the given attributes, major first.
func OrderBy(attrs ...Attr) Order { return Order{By: attrs} }

// Kind implements Value.
func (Order) Kind() Kind { return KindOrder }

// Equal implements Value; attribute sequence is significant.
func (v Order) Equal(o Value) bool {
	w, ok := o.(Order)
	if !ok || v.dontCare != w.dontCare || len(v.By) != len(w.By) {
		return false
	}
	for i := range v.By {
		if v.By[i] != w.By[i] {
			return false
		}
	}
	return true
}

// Hash implements Value.
func (v Order) Hash() uint64 {
	if v.dontCare {
		return 0x77
	}
	h := uint64(0x88)
	tab := attrEntries()
	for _, a := range v.By {
		h = h*1099511628211 ^ tab[a.sym].relHash
		h = h*1099511628211 ^ tab[a.sym].nameHash
	}
	return h
}

// String implements Value.
func (v Order) String() string {
	if v.dontCare {
		return "DONT_CARE"
	}
	parts := make([]string, len(v.By))
	for i, a := range v.By {
		parts[i] = a.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// IsDontCare implements Value.
func (v Order) IsDontCare() bool { return v.dontCare }

// Within reports whether every attribute of the order is in the given
// attribute set: a stream can only be sorted on attributes it carries.
// Rule tests use it to reject unsatisfiable sort requests.
func (v Order) Within(attrs Attrs) bool {
	if v.dontCare {
		return true
	}
	return attrs.ContainsAll(Attrs(v.By))
}

// Satisfies reports whether a stream ordered as v satisfies a request for
// order w: either w is DONT_CARE, or v's attribute sequence has w's as a
// prefix (a stream sorted on <a, b> is also sorted on <a>).
func (v Order) Satisfies(w Order) bool {
	if w.dontCare {
		return true
	}
	if v.dontCare || len(v.By) < len(w.By) {
		return false
	}
	for i := range w.By {
		if v.By[i] != w.By[i] {
			return false
		}
	}
	return true
}
