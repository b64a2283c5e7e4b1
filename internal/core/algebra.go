package core

import (
	"fmt"
	"sort"
)

// OpKind distinguishes abstract operators from concrete algorithms.
type OpKind uint8

// Operation kinds.
const (
	// Operator is an abstract (implementation-unspecified) computation
	// on streams or stored files, e.g. JOIN, RET, SORT.
	Operator OpKind = iota
	// Algorithm is a concrete implementation of an operator, e.g.
	// Nested_loops, File_scan, Merge_sort.
	Algorithm
)

func (k OpKind) String() string {
	if k == Operator {
		return "operator"
	}
	return "algorithm"
}

// NullName is the reserved name of the Null algorithm (§2.5): the
// pass-through algorithm whose presence marks its operator as an
// enforcer-operator during P2V translation.
const NullName = "Null"

// Operation is a database operation: an abstract operator or a concrete
// algorithm. In Prairie both are first-class — any of them can appear in
// any rule, and only they can appear in rules.
type Operation struct {
	Name string
	Kind OpKind
	// Arity is the number of essential parameters (stream or file
	// inputs). Additional parameters live in descriptors.
	Arity int
	// Args lists the operation's additional parameters (Table 1 of the
	// paper: the join predicate for JOIN, the selection predicate and
	// projection list for RET, ...). The optimizer engine uses them —
	// intersected with the argument property class — as the operation's
	// identity in duplicate detection. Empty means "all argument
	// properties are identity", which is safe but coarse.
	Args  []PropID
	index int
}

// IsNull reports whether the operation is the Null algorithm.
func (o *Operation) IsNull() bool { return o.Kind == Algorithm && o.Name == NullName }

// String returns the operation name.
func (o *Operation) String() string { return o.Name }

// Index returns the operation's dense registration index within its
// algebra; engines use it for bitsets and tables.
func (o *Operation) Index() int { return o.index }

// Algebra is the registry of one optimizer's operators, algorithms, and
// properties. A Prairie specification defines exactly one algebra.
type Algebra struct {
	Name  string
	Props *PropertySet
	byN   map[string]*Operation
	all   []*Operation
	null  *Operation
}

// NewAlgebra returns an empty algebra with a fresh property set.
func NewAlgebra(name string) *Algebra {
	return &Algebra{Name: name, Props: NewPropertySet(), byN: make(map[string]*Operation)}
}

func (a *Algebra) add(name string, kind OpKind, arity int) *Operation {
	if o, ok := a.byN[name]; ok {
		if o.Kind != kind || o.Arity != arity {
			panic(fmt.Sprintf("core: operation %q redefined (%v/%d vs %v/%d)", name, kind, arity, o.Kind, o.Arity))
		}
		return o
	}
	o := &Operation{Name: name, Kind: kind, Arity: arity, index: len(a.all)}
	a.byN[name] = o
	a.all = append(a.all, o)
	return o
}

// Operator defines (or returns the existing) abstract operator.
func (a *Algebra) Operator(name string, arity int) *Operation {
	return a.add(name, Operator, arity)
}

// Algorithm defines (or returns the existing) concrete algorithm.
func (a *Algebra) Algorithm(name string, arity int) *Operation {
	o := a.add(name, Algorithm, arity)
	if o.IsNull() {
		a.null = o
	}
	return o
}

// Null returns the algebra's Null algorithm, defining it on first use.
func (a *Algebra) Null() *Operation {
	if a.null == nil {
		a.null = a.Algorithm(NullName, 1)
	}
	return a.null
}

// Op looks up an operation by name.
func (a *Algebra) Op(name string) (*Operation, bool) {
	o, ok := a.byN[name]
	return o, ok
}

// MustOp looks up an operation, panicking if absent.
func (a *Algebra) MustOp(name string) *Operation {
	o, ok := a.byN[name]
	if !ok {
		panic("core: unknown operation " + name)
	}
	return o
}

// Operations returns all operations in registration order.
func (a *Algebra) Operations() []*Operation { return a.all }

// Operators returns the abstract operators, sorted by name.
func (a *Algebra) Operators() []*Operation { return a.filter(Operator) }

// Algorithms returns the concrete algorithms, sorted by name.
func (a *Algebra) Algorithms() []*Operation { return a.filter(Algorithm) }

func (a *Algebra) filter(k OpKind) []*Operation {
	var out []*Operation
	for _, o := range a.all {
		if o.Kind == k {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NumOps returns the total number of registered operations.
func (a *Algebra) NumOps() int { return len(a.all) }

// NewDesc returns a fresh descriptor over the algebra's property set.
func (a *Algebra) NewDesc() *Descriptor { return NewDescriptor(a.Props) }
