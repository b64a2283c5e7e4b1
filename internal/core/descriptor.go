package core

import (
	"strings"
)

// Descriptor is a list of annotations — ⟨property, value⟩ pairs —
// describing one node of an operator tree (§2.1). Every node has its own
// descriptor. Prairie's central simplification is that this single
// structure subsumes Volcano's operator/algorithm arguments, physical
// properties, and cost.
//
// Unset properties read as DefaultValue(kind), so rule actions never see
// nil. Descriptors are cheap to copy; rule actions like "D5 = D3" map to
// CopyFrom.
type Descriptor struct {
	ps   *PropertySet
	vals []Value
	// Name tags the descriptor with its rule-variable name (e.g. "D3")
	// while rule actions run; it exists for tracing and error messages.
	Name string
}

// NewDescriptor returns an empty descriptor over the property set.
func NewDescriptor(ps *PropertySet) *Descriptor { return allocDescriptor(ps, ps.Len()) }

// A block is a descriptor and its value slots in one heap object; S is
// [n]Value.
type block[S any] struct {
	d Descriptor
	s S
}

func blockOf[S any](slots func(*S) []Value) func() *Descriptor {
	return func() *Descriptor {
		b := new(block[S])
		b.d.vals = slots(&b.s)
		return &b.d
	}
}

// blocks[n-1] allocates a descriptor with exactly n inline slots. A block
// is sized to the property set, not to one generous class: 48+16n bytes
// is an allocator size class for every n here (n ≤ 12), so a block costs
// the bytes of the two objects it replaces.
var blocks = [...]func() *Descriptor{
	blockOf(func(s *[1]Value) []Value { return s[:] }),
	blockOf(func(s *[2]Value) []Value { return s[:] }),
	blockOf(func(s *[3]Value) []Value { return s[:] }),
	blockOf(func(s *[4]Value) []Value { return s[:] }),
	blockOf(func(s *[5]Value) []Value { return s[:] }),
	blockOf(func(s *[6]Value) []Value { return s[:] }),
	blockOf(func(s *[7]Value) []Value { return s[:] }),
	blockOf(func(s *[8]Value) []Value { return s[:] }),
	blockOf(func(s *[9]Value) []Value { return s[:] }),
	blockOf(func(s *[10]Value) []Value { return s[:] }),
	blockOf(func(s *[11]Value) []Value { return s[:] }),
	blockOf(func(s *[12]Value) []Value { return s[:] }),
}

// allocDescriptor returns an empty descriptor with n value slots: one
// object up to len(blocks) slots, struct and slice beyond. Set and
// CopyFrom grow past the inline slots by append.
func allocDescriptor(ps *PropertySet, n int) *Descriptor {
	if n < 1 || n > len(blocks) {
		return &Descriptor{ps: ps, vals: make([]Value, n)}
	}
	d := blocks[n-1]()
	d.ps = ps
	return d
}

// Props returns the descriptor's property set.
func (d *Descriptor) Props() *PropertySet { return d.ps }

// Get returns the value of a property, or the kind's default if unset.
func (d *Descriptor) Get(id PropID) Value {
	if int(id) < len(d.vals) && d.vals[id] != nil {
		return d.vals[id]
	}
	return DefaultValue(d.ps.At(id).Kind)
}

// Has reports whether the property has been explicitly set.
func (d *Descriptor) Has(id PropID) bool {
	return int(id) < len(d.vals) && d.vals[id] != nil
}

// Set assigns a property. It panics if the value kind does not match the
// property kind — a rule-specification bug that should fail loudly.
func (d *Descriptor) Set(id PropID, v Value) {
	if v != nil {
		want := d.ps.At(id).Kind
		got := v.Kind()
		// A float may be stored into a cost property and vice versa;
		// rule arithmetic freely mixes the two numeric kinds.
		if got != want && !numericKinds(got, want) {
			panic("core: property " + d.ps.At(id).Name + " has kind " + want.String() + ", not " + got.String())
		}
		v = coerce(v, want)
	}
	for int(id) >= len(d.vals) {
		d.vals = append(d.vals, nil)
	}
	d.vals[id] = v
}

func numericKinds(a, b Kind) bool {
	num := func(k Kind) bool { return k == KindFloat || k == KindCost || k == KindInt }
	return num(a) && num(b)
}

func coerce(v Value, want Kind) Value {
	switch want {
	case KindFloat:
		switch x := v.(type) {
		case Cost:
			return Float(x)
		case Int:
			return Float(x)
		}
	case KindCost:
		switch x := v.(type) {
		case Float:
			return Cost(x)
		case Int:
			return Cost(x)
		}
	case KindInt:
		switch x := v.(type) {
		case Float:
			return Int(x)
		case Cost:
			return Int(x)
		}
	}
	return v
}

// Unset clears a property back to "not set".
func (d *Descriptor) Unset(id PropID) {
	if int(id) < len(d.vals) {
		d.vals[id] = nil
	}
}

// CopyFrom overwrites this descriptor with src's annotations — the
// paper's whole-descriptor assignment "D5 = D3".
func (d *Descriptor) CopyFrom(src *Descriptor) {
	for len(d.vals) < len(src.vals) {
		d.vals = append(d.vals, nil)
	}
	for i := range d.vals {
		if i < len(src.vals) {
			d.vals[i] = src.vals[i]
		} else {
			d.vals[i] = nil
		}
	}
}

// CopyOn overwrites the properties ids with src's annotations, unsetting
// those src leaves unset; d's other properties stay as they are.
func (d *Descriptor) CopyOn(src *Descriptor, ids []PropID) {
	for _, id := range ids {
		if src.Has(id) {
			d.Set(id, src.vals[id])
		} else {
			d.Unset(id)
		}
	}
}

// Clone returns an independent copy.
func (d *Descriptor) Clone() *Descriptor {
	c := allocDescriptor(d.ps, len(d.vals))
	c.Name = d.Name
	copy(c.vals, d.vals)
	return c
}

// DescArena carves descriptors and their value slots from fixed-size
// chunks: the descriptors a search's memo owns all die with it, so they
// are allocated by the chunk rather than one block each. A descriptor it
// returns has exactly as many slots as it was given (cap = len), so a
// Set past them reallocates instead of writing into a neighbour's.
type DescArena struct {
	ds   []Descriptor
	vals []Value
}

// Chunk lengths of a DescArena: 1.5 KB of descriptors, 4 KB of slots.
const (
	descChunk  = 32
	valueChunk = 256
)

// Clone returns a copy of d carved from the arena.
func (a *DescArena) Clone(d *Descriptor) *Descriptor {
	c := &Take(&a.ds, 1, descChunk)[0]
	c.ps, c.Name = d.ps, d.Name
	c.vals = Take(&a.vals, len(d.vals), valueChunk)
	copy(c.vals, d.vals)
	return c
}

// Take carves n zero values from *chunk and returns them with capacity
// n; when the chunk has fewer than n left it starts a new one of
// max(n, size) elements, leaving the old one to the values carved from
// it. size bounds every chunk, so an arena wastes at most one chunk's
// tail.
func Take[T any](chunk *[]T, n, size int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(n, size))
	}
	s := c[len(c) : len(c)+n : len(c)+n]
	*chunk = c[:len(c)+n]
	return s
}

// Merge sets every property that is explicitly set in src onto d,
// leaving d's other properties intact.
func (d *Descriptor) Merge(src *Descriptor) {
	for i, v := range src.vals {
		if v != nil {
			d.Set(PropID(i), v)
		}
	}
}

// Float reads a numeric property as float64 (0 if unset).
func (d *Descriptor) Float(id PropID) float64 {
	switch v := d.Get(id).(type) {
	case Float:
		return float64(v)
	case Cost:
		return float64(v)
	case Int:
		return float64(v)
	default:
		return 0
	}
}

// SetFloat stores a float into a numeric property.
func (d *Descriptor) SetFloat(id PropID, f float64) { d.Set(id, Float(f)) }

// Order reads an order property (DONT_CARE if unset).
func (d *Descriptor) Order(id PropID) Order {
	if v, ok := d.Get(id).(Order); ok {
		return v
	}
	return DontCareOrder
}

// Pred reads a predicate property (TRUE if unset).
func (d *Descriptor) Pred(id PropID) *Pred {
	if v, ok := d.Get(id).(*Pred); ok {
		return v
	}
	return TruePred
}

// AttrList reads an attrs property (empty if unset).
func (d *Descriptor) AttrList(id PropID) Attrs {
	if v, ok := d.Get(id).(Attrs); ok {
		return v
	}
	return nil
}

// EqualOn reports whether d and o agree (treating unset as the default
// value) on every property in ids.
func (d *Descriptor) EqualOn(o *Descriptor, ids []PropID) bool {
	for _, id := range ids {
		if !d.Get(id).Equal(o.Get(id)) {
			return false
		}
	}
	return true
}

// HashOn hashes the projection of d onto ids (unset read as default).
// EqualOn-equal descriptors produce equal hashes.
func (d *Descriptor) HashOn(ids []PropID) uint64 {
	h := fnvOffset
	for _, id := range ids {
		h = HashCombine(h, uint64(id))
		h = HashCombine(h, d.Get(id).Hash())
	}
	return h
}

// SatisfiesOn reports whether d meets the request req on every property
// in ids: a property satisfies its request when the request is unset or
// DONT_CARE, when the values are equal, or — for orders — when d's order
// has req's as a prefix.
func (d *Descriptor) SatisfiesOn(req *Descriptor, ids []PropID) bool {
	for _, id := range ids {
		if !req.Has(id) {
			continue
		}
		want := req.Get(id)
		if want.IsDontCare() {
			continue
		}
		got := d.Get(id)
		if wo, ok := want.(Order); ok {
			if go_, ok2 := got.(Order); ok2 {
				if go_.Satisfies(wo) {
					continue
				}
				return false
			}
		}
		if !got.Equal(want) {
			return false
		}
	}
	return true
}

// String renders the set annotations as "{prop=value, ...}" in property
// definition order.
func (d *Descriptor) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, v := range d.vals {
		if v == nil {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(d.ps.At(PropID(i)).Name)
		b.WriteByte('=')
		b.WriteString(v.String())
	}
	b.WriteByte('}')
	return b.String()
}
