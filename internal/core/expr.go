package core

import (
	"fmt"
	"slices"
	"strings"
)

// Expr is a node of an operator tree (§2.1): a rooted tree whose interior
// nodes are database operations and whose leaves are stored files. When
// every interior node is an algorithm the tree is an access plan.
type Expr struct {
	// Op is the node's operation; nil marks a stored-file leaf.
	Op *Operation
	// D is the node's descriptor. Every node has its own.
	D *Descriptor
	// Kids are the essential parameters (stream or file inputs).
	Kids []*Expr
	// File names the stored file for a leaf node.
	File string
}

// NewLeaf returns a stored-file leaf with the given descriptor (typically
// initialized from the catalog: attributes, num_records, tuple_size).
func NewLeaf(file string, d *Descriptor) *Expr {
	return &Expr{File: file, D: d}
}

// NewNode returns an interior node.
func NewNode(op *Operation, d *Descriptor, kids ...*Expr) *Expr {
	if op == nil {
		panic("core: NewNode with nil operation")
	}
	if len(kids) != op.Arity {
		panic(fmt.Sprintf("core: %s expects %d inputs, got %d", op.Name, op.Arity, len(kids)))
	}
	return &Expr{Op: op, D: d, Kids: kids}
}

// IsLeaf reports whether the node is a stored file.
func (e *Expr) IsLeaf() bool { return e.Op == nil }

// IsPlan reports whether the tree rooted at e is an access plan (all
// interior nodes are algorithms).
func (e *Expr) IsPlan() bool {
	if e.IsLeaf() {
		return true
	}
	if e.Op.Kind != Algorithm {
		return false
	}
	for _, k := range e.Kids {
		if !k.IsPlan() {
			return false
		}
	}
	return true
}

// IsLogical reports whether the tree rooted at e contains only abstract
// operators (an operator tree in the paper's strict sense).
func (e *Expr) IsLogical() bool {
	if e.IsLeaf() {
		return true
	}
	if e.Op.Kind != Operator {
		return false
	}
	for _, k := range e.Kids {
		if !k.IsLogical() {
			return false
		}
	}
	return true
}

// Size returns the number of nodes in the tree.
func (e *Expr) Size() int {
	n := 1
	for _, k := range e.Kids {
		n += k.Size()
	}
	return n
}

// Leaves appends the tree's stored-file names left to right.
func (e *Expr) Leaves() []string {
	var out []string
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x.IsLeaf() {
			out = append(out, x.File)
			return
		}
		for _, k := range x.Kids {
			walk(k)
		}
	}
	walk(e)
	return out
}

// Algorithms returns the distinct operation names used by the tree, in
// pre-order.
func (e *Expr) Algorithms() []string {
	var out []string
	var walk func(*Expr)
	walk = func(x *Expr) {
		if !x.IsLeaf() && !slices.Contains(out, x.Op.Name) {
			out = append(out, x.Op.Name)
		}
		for _, k := range x.Kids {
			walk(k)
		}
	}
	walk(e)
	return out
}

// Cost returns the estimated cost of the plan rooted at e: its
// descriptor's value of the classification's cost property (0 without a
// descriptor).
func (e *Expr) Cost(class Classification) float64 {
	if e.D == nil {
		return 0
	}
	return e.D.Float(class.Cost)
}

// A plan is already an operator tree, so this identity method returns e.
// It survives only because the benchmark module (bench/layers.go,
// bench/library.go) still calls it; delete it together with those calls
// (ROADMAP 7(a)).
func (e *Expr) ToExpr() *Expr { return e }

// Clone returns a deep copy of the tree (descriptors cloned too).
func (e *Expr) Clone() *Expr {
	c := &Expr{Op: e.Op, File: e.File}
	if e.D != nil {
		c.D = e.D.Clone()
	}
	c.Kids = make([]*Expr, len(e.Kids))
	for i, k := range e.Kids {
		c.Kids[i] = k.Clone()
	}
	return c
}

// String renders the tree in the paper's functional notation, e.g.
// "SORT(JOIN(RET(R1), RET(R2)))".
func (e *Expr) String() string {
	if e.IsLeaf() {
		return e.File
	}
	parts := make([]string, len(e.Kids))
	for i, k := range e.Kids {
		parts[i] = k.String()
	}
	return e.Op.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Format renders the tree as an indented multi-line outline with
// descriptor annotations; useful for debugging and the CLIs.
func (e *Expr) Format() string {
	var b strings.Builder
	e.format(&b, 0)
	return b.String()
}

func (e *Expr) format(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if e.IsLeaf() {
		b.WriteString(e.File)
	} else {
		b.WriteString(e.Op.Name)
	}
	if e.D != nil {
		b.WriteString(" : ")
		b.WriteString(e.D.String())
	}
	b.WriteByte('\n')
	for _, k := range e.Kids {
		k.format(b, depth+1)
	}
}

// Explain renders a plan as an indented tree with each node's estimated
// cost and physical properties under the classification — the per-node
// view a rule writer debugs cost formulas with.
func (e *Expr) Explain(class Classification) string {
	var b strings.Builder
	e.explain(&b, class, 0)
	return b.String()
}

func (e *Expr) explain(b *strings.Builder, class Classification, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if e.IsLeaf() {
		fmt.Fprintf(b, "%s (stored file)\n", e.File)
		return
	}
	fmt.Fprintf(b, "%s  cost=%.1f", e.Op.Name, e.Cost(class))
	if e.D != nil {
		for _, id := range class.Phys {
			if e.D.Has(id) && !e.D.Get(id).IsDontCare() {
				fmt.Fprintf(b, "  %s=%s", e.D.Props().At(id).Name, e.D.Get(id))
			}
		}
	}
	b.WriteByte('\n')
	for _, k := range e.Kids {
		k.explain(b, class, depth+1)
	}
}

// ---------------------------------------------------------------------------
// Patterns

// PatNode is a node of a rule pattern: the expression shapes on the two
// sides of a T-rule or I-rule. A pattern leaf with Var != 0 matches any
// input (the paper's ?1, ?2, ...); an interior node matches a specific
// operation. Desc names the descriptor variable bound at this node
// ("D3"). On the right-hand side a variable leaf may also carry a *new*
// descriptor name (e.g. Nested_loops(S1:D4, S2) in I-rule (5)), which is
// how rules constrain the properties an input must be optimized to.
type PatNode struct {
	Op   *Operation
	Var  int // 1-based variable index for leaves; 0 for interior nodes
	Desc string
	Kids []*PatNode
	// Slot is the node's descriptor slot in its rule's Frame; NewFrame
	// assigns it.
	Slot int
}

// PVar returns a variable pattern leaf ?i, optionally tagged with a
// descriptor name (pass "" for none).
func PVar(i int, desc string) *PatNode { return &PatNode{Var: i, Desc: desc} }

// POp returns an interior pattern node for op with descriptor name desc.
func POp(op *Operation, desc string, kids ...*PatNode) *PatNode {
	if len(kids) != op.Arity {
		panic(fmt.Sprintf("core: pattern %s expects %d inputs, got %d", op.Name, op.Arity, len(kids)))
	}
	return &PatNode{Op: op, Desc: desc, Kids: kids}
}

// IsVar reports whether the node is a variable leaf.
func (p *PatNode) IsVar() bool { return p.Op == nil }

// DescNames appends every descriptor variable name in the pattern
// (interior nodes and tagged variable leaves), in pre-order.
func (p *PatNode) DescNames() []string {
	var out []string
	var walk func(*PatNode)
	walk = func(n *PatNode) {
		if n.Desc != "" {
			out = append(out, n.Desc)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(p)
	return out
}

// Depth returns the pattern's operator nesting depth (a single operator
// over variables has depth 1; variables have depth 0).
func (p *PatNode) Depth() int {
	if p.IsVar() {
		return 0
	}
	max := 0
	for _, k := range p.Kids {
		if d := k.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Ops appends the distinct operations used by the pattern.
func (p *PatNode) Ops() []*Operation {
	var out []*Operation
	seen := map[*Operation]bool{}
	var walk func(*PatNode)
	walk = func(n *PatNode) {
		if n.Op != nil && !seen[n.Op] {
			seen[n.Op] = true
			out = append(out, n.Op)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(p)
	return out
}

// String renders the pattern in the paper's notation, e.g.
// "JOIN(JOIN(?1:D1, ?2:D2):D3, ?3:D4):D5".
func (p *PatNode) String() string {
	var s string
	if p.IsVar() {
		s = fmt.Sprintf("?%d", p.Var)
	} else {
		parts := make([]string, len(p.Kids))
		for i, k := range p.Kids {
			parts[i] = k.String()
		}
		s = p.Op.Name + "(" + strings.Join(parts, ", ") + ")"
	}
	if p.Desc != "" {
		s += ":" + p.Desc
	}
	return s
}

// Clone returns a deep copy of the pattern.
func (p *PatNode) Clone() *PatNode {
	c := &PatNode{Op: p.Op, Var: p.Var, Desc: p.Desc, Slot: p.Slot}
	c.Kids = make([]*PatNode, len(p.Kids))
	for i, k := range p.Kids {
		c.Kids[i] = k.Clone()
	}
	return c
}
