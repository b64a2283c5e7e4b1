package core

import (
	"fmt"
	"slices"
	"sort"
)

// Frame is the fixed layout of the state one firing of a rule works in.
// The Prairie-language compiler resolves every descriptor variable to its
// slot once, so compiled actions index the binding instead of searching
// it by name; pattern nodes carry the same slots (PatNode.Slot), so the
// engine's matcher binds by index too.
type Frame struct {
	// Names lists the rule's descriptor variables by slot: the left
	// side's in pattern order, then those the right side introduces.
	Names []string
	// Shared renders the sub-expressions the rule's compiled actions
	// evaluate once per firing; Binding.Shared holds one value per entry.
	Shared []string
	// Args counts the helper-call argument slots of the compiled actions.
	Args int
}

// NewFrame lays out the frame of a rule with the given pattern sides and
// records every node's slot in place: each interior node and each named
// variable leaf gets one (a name occurring twice shares it), a bare
// variable leaf -1. Patterns shared between rules must be cloned first.
func NewFrame(lhs, rhs *PatNode) *Frame {
	f := &Frame{}
	var walk func(n *PatNode)
	walk = func(n *PatNode) {
		n.Slot = -1
		if n.Desc != "" {
			n.Slot = slices.Index(f.Names, n.Desc)
		}
		if n.Slot < 0 && (n.Desc != "" || !n.IsVar()) {
			n.Slot = len(f.Names)
			f.Names = append(f.Names, n.Desc)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(lhs)
	walk(rhs)
	return f
}

// Binding carries the descriptor environment a rule's actions run in:
// every descriptor variable name appearing in the rule's patterns maps to
// a descriptor. Left-hand-side descriptors are bound by the engine from
// the matched expression; right-hand-side descriptors come into existence
// when the rule's actions first reference them.
//
// A binding is a slice of descriptors indexed by slot. Laid out by a
// rule's Frame (Reset, Enter) the slots are the frame's; names bound
// beyond the frame — or with no frame at all, as hand-coded Volcano rules
// and tests do — are appended. Compiled actions and P2V's hooks use
// slots, hand-coded rules D, a scan over the same slots: bindings hold
// few entries, so the scan beats a map.
type Binding struct {
	ps    *PropertySet
	frame *Frame
	names []string      // the frame's names, then names bound ad hoc
	descs []*Descriptor // by slot; nil until bound or first referenced
	// Scratch makes the binding own the descriptors its actions create:
	// BeginFiring takes them back and the next firing (or Reset) clears
	// and reuses them, slot by slot. Only a caller that copies what it
	// keeps may set it: the memo clones a descriptor when it interns a new
	// expression, the costing loop one that a plan keeps (see Owns).
	Scratch bool
	pool    []*Descriptor // recycled descriptors by slot
	// Shared holds the firing's value of each Frame.Shared entry, nil
	// until evaluated. Args are the Frame.Args helper-call argument
	// slots: each call site of a compiled rule owns a range of them, so
	// nested calls do not overwrite one another.
	Shared, Args []Value
}

// NewBinding returns an empty binding over a property set.
func NewBinding(ps *PropertySet) *Binding { return &Binding{ps: ps} }

// Reserve sizes the binding, in two arrays, for any frame of at most
// names slots, shared Shared and args Args entries: laying it out by one
// (Reset) then allocates nothing.
func (b *Binding) Reserve(names, shared, args int) {
	ds := make([]*Descriptor, 2*names)
	b.descs, b.pool = ds[:0:names], ds[names:names]
	vs := make([]Value, shared+args)
	b.Shared, b.Args = vs[:0:shared], vs[shared:shared]
}

// Reset empties the binding and lays it out by f (nil for none), keeping
// the backing storage: the engine reuses one binding across all rule
// applications.
func (b *Binding) Reset(f *Frame) {
	b.frame, b.names = f, nil
	clear(b.descs)
	b.descs = b.descs[:0]
	if f == nil {
		return
	}
	// Capped, so a name bound ad hoc reallocates instead of growing into
	// the frame's array.
	b.names = f.Names[:len(f.Names):len(f.Names)]
	b.descs = slices.Grow(b.descs, len(f.Names))[:len(f.Names)]
	b.Shared = slices.Grow(b.Shared[:0], len(f.Shared))[:len(f.Shared)]
	clear(b.Shared)
	b.Args = slices.Grow(b.Args[:0], f.Args)[:f.Args]
}

// Enter is the first statement of every compiled action: it makes sure
// the binding is laid out by the action's frame. The engine's bindings
// already are; one built by name (a test) is rearranged, keeping its
// descriptors.
func (b *Binding) Enter(f *Frame) {
	if b.frame == f {
		return
	}
	names, descs := b.names, slices.Clone(b.descs)
	b.Reset(f)
	for i, d := range descs {
		if d != nil {
			b.Bind(names[i], d)
		}
	}
}

// BeginFiring starts one firing of the rule on the bound left-hand side:
// the previous firing's shared values and names bound beyond the frame
// are dropped, and a Scratch binding takes back the descriptors that
// firing's actions created.
func (b *Binding) BeginFiring() {
	if b.frame != nil {
		n := len(b.frame.Names)
		b.names, b.descs = b.names[:n], b.descs[:n]
	}
	for i, d := range b.descs {
		if i < len(b.pool) && d == b.pool[i] {
			b.descs[i] = nil
		}
	}
	clear(b.Shared)
}

// Slot returns the descriptor in slot i, creating an empty one on first
// reference (right-hand-side descriptors come into existence this way).
func (b *Binding) Slot(i int) *Descriptor {
	if d := b.descs[i]; d != nil {
		return d
	}
	return b.fill(i)
}

func (b *Binding) fill(i int) *Descriptor {
	var d *Descriptor
	if b.Scratch && i < len(b.pool) && b.pool[i] != nil {
		d = b.pool[i]
		clear(d.vals)
	} else if d = NewDescriptor(b.ps); b.Scratch {
		if len(b.pool) <= i { // room for every slot at once
			b.pool = append(b.pool, make([]*Descriptor, len(b.descs)-len(b.pool))...)
		}
		b.pool[i] = d
	}
	d.Name = b.names[i]
	b.descs[i] = d
	return d
}

// Owns reports whether d is one of the descriptors a Scratch binding
// recycles: a caller must copy it to keep it.
func (b *Binding) Owns(d *Descriptor) bool { return slices.Contains(b.pool, d) }

// BindSlot binds slot i to an existing descriptor.
func (b *Binding) BindSlot(i int, d *Descriptor) { b.descs[i] = d }

// BoundSlot reports whether slot i is bound.
func (b *Binding) BoundSlot(i int) bool { return b.descs[i] != nil }

// slot returns name's slot, appending one when the name is new.
func (b *Binding) slot(name string) int {
	if i := slices.Index(b.names, name); i >= 0 {
		return i
	}
	b.names = append(b.names, name)
	b.descs = append(b.descs, nil)
	return len(b.names) - 1
}

// D returns the descriptor bound to name, creating an empty one on first
// reference.
func (b *Binding) D(name string) *Descriptor { return b.Slot(b.slot(name)) }

// Bind associates name with an existing descriptor, replacing any
// previous binding.
func (b *Binding) Bind(name string, d *Descriptor) { b.descs[b.slot(name)] = d }

// Bound reports whether name is bound.
func (b *Binding) Bound(name string) bool {
	i := slices.Index(b.names, name)
	return i >= 0 && b.descs[i] != nil
}

// Names returns the bound names, sorted.
func (b *Binding) Names() []string {
	var out []string
	for i, d := range b.descs {
		if d != nil {
			out = append(out, b.names[i])
		}
	}
	sort.Strings(out)
	return out
}

// Action is a group of descriptor assignment statements, compiled from a
// rule's statement block. Left-hand sides refer to right-hand-side
// descriptors of the rule; right-hand sides may read any descriptor in the
// binding and call helper functions. An action must not modify
// left-hand-side descriptors (the Prairie-language checker enforces this).
type Action func(b *Binding)

// Test is a rule applicability check: a boolean expression over the
// binding, possibly calling helper functions.
type Test func(b *Binding) bool

// TRule is a transformation rule (§2.3): an equivalence between two
// expressions of abstract operators, with actions split into pre-test
// statements, a test, and post-test statements.
//
//	E(x1..xn):D1  ==>  E'(x1..xn):D2
//	{{ pre-test }}  test  {{ post-test }}
//
// The rule's statements are compiled once, cut for the back end that
// runs them (Slice).
type TRule struct {
	Name string
	// Origin records where the rule was declared ("spec:" and its source
	// position). Back ends carry it through to per-rule diagnostics and
	// verification verdicts.
	Origin   string
	LHS, RHS *PatNode
	// Frame lays out the rule's descriptor variables by slot; LHS/RHS
	// carry the same slots.
	Frame *Frame
	// Slice compiles the rule's statements, cut for a back end that
	// interns what a firing builds: rhs is the right side the back end
	// will build and idProps tells which properties identify an
	// expression of an operation.
	Slice func(rhs *PatNode, idProps func(*Operation) []PropID) *Sliced
	// Normalize marks a rule the specification declares normalizing
	// ("normalize name;"): a back end rewrites the query with it to a
	// fixpoint before the search, and does not explore it.
	Normalize bool
	// RootCopy reports that the rule has no test and no pre-test, and
	// that its one statement copies the left root's descriptor whole into
	// the right root's ("D4 = D3;").
	RootCopy bool
}

// Sliced is a T-rule cut three ways (TRule.Slice). Cond runs the pre-test
// statements the test reads, then the test; it is nil when the rule has
// neither. Appl runs what decides the
// identity properties of the right side's nodes — after it they are
// final. Rest runs everything else and is wanted only by a back end that
// keeps what the firing built; nil means nothing was held back. The parts
// are laid out by their own Frame, over the rule's slots.
type Sliced struct {
	Frame *Frame
	Cond  Test
	Appl  Action // may be nil
	Rest  Action // may be nil
	// RestRoot lists the properties Rest assigns on the right side's
	// root, each once, in the order Rest first assigns them.
	RestRoot []PropID
	// Doc lists the cut statement by statement, or the reason the rule was
	// left as written, for the rule compiler's -dump.
	Doc []string
}

// String renders the rule header in the paper's notation.
func (r *TRule) String() string {
	return fmt.Sprintf("%s: %s ==> %s", r.Name, r.LHS, r.RHS)
}

// IRule is an implementation rule (§2.4): an equivalence between an
// operator expression and an implementing algorithm, with a test, pre-opt
// statements (run before the algorithm's inputs are optimized; they set
// the algorithm's descriptor and the required properties of inputs), and
// post-opt statements (run after the inputs are optimized; they normally
// compute cost).
type IRule struct {
	Name     string
	LHS, RHS *PatNode
	Test     Test   // nil means TRUE
	PreOpt   Action // may be nil
	PostOpt  Action // may be nil
	Frame    *Frame // lays out the compiled actions' descriptors by slot
	// PreWrites lists the properties the pre-opt statements assign, one
	// per assignment, whole-descriptor copies apart: the write hints of
	// the paper's footnote 3, by which P2V classifies properties.
	PreWrites []PropWrite
}

// PropWrite names a property a statement assigns on a descriptor
// variable.
type PropWrite struct {
	Desc string
	Prop PropID
}

// Op returns the abstract operator on the rule's left side.
func (r *IRule) Op() *Operation { return r.LHS.Op }

// Alg returns the implementing algorithm on the rule's right side.
func (r *IRule) Alg() *Operation { return r.RHS.Op }

// IsNullRule reports whether the rule implements its operator by the Null
// algorithm (§2.5), which marks the operator as an enforcer-operator.
func (r *IRule) IsNullRule() bool { return r.Alg() != nil && r.Alg().IsNull() }

// RunTest evaluates the rule's test.
func (r *IRule) RunTest(b *Binding) bool {
	if r.Test != nil {
		return r.Test(b)
	}
	return true
}

// String renders the rule header in the paper's notation.
func (r *IRule) String() string {
	return fmt.Sprintf("%s: %s ==> %s", r.Name, r.LHS, r.RHS)
}

// RuleSet is a complete Prairie specification: an algebra (operations and
// properties), T-rules and I-rules, whose helper calls the compiler has
// bound. It defines a search space and cost model but no search
// strategy; a back-end engine (internal/volcano, via internal/p2v)
// supplies that.
type RuleSet struct {
	Algebra *Algebra
	TRules  []*TRule
	IRules  []*IRule
}

// NewRuleSet returns an empty rule set over the algebra.
func NewRuleSet(a *Algebra) *RuleSet {
	return &RuleSet{Algebra: a}
}

// AddT appends a T-rule.
func (rs *RuleSet) AddT(r *TRule) *TRule { rs.TRules = append(rs.TRules, r); return r }

// AddI appends an I-rule.
func (rs *RuleSet) AddI(r *IRule) *IRule { rs.IRules = append(rs.IRules, r); return r }
