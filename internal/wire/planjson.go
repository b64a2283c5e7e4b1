package wire

import (
	"fmt"

	"prairie/internal/core"
)

// This file is the wire codec for access plans. The core value algebra
// is closed (eight kinds: int, float, bool, string, cost, attrs, order,
// pred), so a plan — algorithms plus descriptors — round-trips through
// JSON exactly: DecodePlan(EncodePlan(p)) rebuilds a tree the exec
// compiler accepts, which is what lets the differential harness execute
// plans on the far side of the service boundary.

// PlanNode is one node of a serialized access plan. Leaves carry File;
// interior nodes carry the algorithm name. Props holds every descriptor
// property that is set, keyed by property name.
type PlanNode struct {
	Op    string               `json:"op,omitempty"`   // algorithm name; "" for a leaf
	File  string               `json:"file,omitempty"` // stored-file name; leaf only
	Props map[string]PropValue `json:"props,omitempty"`
	Kids  []*PlanNode          `json:"kids,omitempty"`
}

// PropValue is a kind-tagged descriptor value.
type PropValue struct {
	Kind string  `json:"kind"`
	Num  float64 `json:"num,omitempty"`  // int, float, cost
	Bool bool    `json:"bool,omitempty"` // bool
	Str  string  `json:"str,omitempty"`  // string
	Attr []Attr  `json:"attrs,omitempty"`
	Ord  *Order  `json:"order,omitempty"`
	Pred *Pred   `json:"pred,omitempty"`
}

// Attr is a (relation, attribute) pair.
type Attr struct {
	Rel  string `json:"rel"`
	Name string `json:"name"`
}

// Order serializes a tuple order.
type Order struct {
	DontCare bool   `json:"dont_care,omitempty"`
	By       []Attr `json:"by,omitempty"`
}

// Pred serializes a predicate tree. Comparison nodes carry Left and
// either Right (join term) or Const (selection term).
type Pred struct {
	Op    string     `json:"op"` // TRUE = AND OR NOT < <= > >= <>
	Left  *Attr      `json:"left,omitempty"`
	Right *Attr      `json:"right,omitempty"`
	Const *PropValue `json:"const,omitempty"`
	Kids  []*Pred    `json:"kids,omitempty"`
}

func attrOf(a core.Attr) Attr { return Attr{Rel: a.Rel(), Name: a.Name()} }

func attrsOf(as core.Attrs) []Attr {
	out := make([]Attr, len(as))
	for i, a := range as {
		out[i] = attrOf(a)
	}
	return out
}

// coreAttr interns a name off the wire; it fails, rather than grow the
// process's attribute table without bound, past core.MaxAttrs names.
func coreAttr(a Attr) (core.Attr, error) { return core.Intern(a.Rel, a.Name) }

func coreAttrs(as []Attr) (core.Attrs, error) {
	out := make(core.Attrs, len(as))
	for i, a := range as {
		var err error
		if out[i], err = coreAttr(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func encodeValue(v core.Value) (PropValue, error) {
	switch x := v.(type) {
	case core.Int:
		return PropValue{Kind: "int", Num: float64(x)}, nil
	case core.Float:
		return PropValue{Kind: "float", Num: float64(x)}, nil
	case core.Cost:
		return PropValue{Kind: "cost", Num: float64(x)}, nil
	case core.Bool:
		return PropValue{Kind: "bool", Bool: bool(x)}, nil
	case core.Str:
		return PropValue{Kind: "string", Str: string(x)}, nil
	case core.Attrs:
		return PropValue{Kind: "attrs", Attr: attrsOf(x)}, nil
	case core.Order:
		if x.IsDontCare() {
			return PropValue{Kind: "order", Ord: &Order{DontCare: true}}, nil
		}
		return PropValue{Kind: "order", Ord: &Order{By: attrsOf(x.By)}}, nil
	case *core.Pred:
		p, err := encodePred(x)
		if err != nil {
			return PropValue{}, err
		}
		return PropValue{Kind: "pred", Pred: p}, nil
	}
	return PropValue{}, fmt.Errorf("wire: cannot encode value kind %v", v.Kind())
}

func decodeValue(v PropValue) (core.Value, error) {
	switch v.Kind {
	case "int":
		return core.Int(int64(v.Num)), nil
	case "float":
		return core.Float(v.Num), nil
	case "cost":
		return core.Cost(v.Num), nil
	case "bool":
		return core.Bool(v.Bool), nil
	case "string":
		return core.Str(v.Str), nil
	case "attrs":
		return coreAttrs(v.Attr)
	case "order":
		if v.Ord == nil || v.Ord.DontCare {
			return core.DontCareOrder, nil
		}
		by, err := coreAttrs(v.Ord.By)
		return core.OrderBy(by...), err
	case "pred":
		return decodePred(v.Pred)
	}
	return nil, fmt.Errorf("wire: cannot decode value kind %q", v.Kind)
}

func encodePred(p *core.Pred) (*Pred, error) {
	if p.IsTrue() {
		return &Pred{Op: "TRUE"}, nil
	}
	w := &Pred{Op: p.Op.String()}
	switch p.Op {
	case core.PredAnd, core.PredOr, core.PredNot:
		for _, k := range p.Kids {
			wk, err := encodePred(k)
			if err != nil {
				return nil, err
			}
			w.Kids = append(w.Kids, wk)
		}
	default: // comparison
		l := attrOf(p.Left)
		w.Left = &l
		if p.AttrCmp {
			r := attrOf(p.Right)
			w.Right = &r
		} else {
			c, err := encodeValue(p.Const)
			if err != nil {
				return nil, err
			}
			w.Const = &c
		}
	}
	return w, nil
}

var predOps = map[string]core.PredOp{
	"TRUE": core.PredTrue, "=": core.PredEq, "<>": core.PredNe,
	"<": core.PredLt, "<=": core.PredLe, ">": core.PredGt, ">=": core.PredGe,
	"AND": core.PredAnd, "OR": core.PredOr, "NOT": core.PredNot,
}

func decodePred(w *Pred) (*core.Pred, error) {
	if w == nil {
		return core.TruePred, nil
	}
	op, ok := predOps[w.Op]
	if !ok {
		return nil, fmt.Errorf("wire: unknown predicate op %q", w.Op)
	}
	switch op {
	case core.PredTrue:
		return core.TruePred, nil
	case core.PredAnd, core.PredOr, core.PredNot:
		p := &core.Pred{Op: op}
		for _, k := range w.Kids {
			pk, err := decodePred(k)
			if err != nil {
				return nil, err
			}
			p.Kids = append(p.Kids, pk)
		}
		return p, nil
	}
	if w.Left == nil {
		return nil, fmt.Errorf("wire: comparison %q missing left attribute", w.Op)
	}
	left, err := coreAttr(*w.Left)
	if err != nil {
		return nil, err
	}
	p := &core.Pred{Op: op, Left: left}
	switch {
	case w.Right != nil:
		if p.Right, err = coreAttr(*w.Right); err != nil {
			return nil, err
		}
		p.AttrCmp = true
	case w.Const != nil:
		c, err := decodeValue(*w.Const)
		if err != nil {
			return nil, err
		}
		p.Const = c
	default:
		return nil, fmt.Errorf("wire: comparison %q has neither right attribute nor constant", w.Op)
	}
	return p, nil
}

func encodeDescriptor(d *core.Descriptor) (map[string]PropValue, error) {
	if d == nil {
		return nil, nil
	}
	ps := d.Props()
	out := map[string]PropValue{}
	for id := core.PropID(0); int(id) < ps.Len(); id++ {
		if !d.Has(id) {
			continue
		}
		v, err := encodeValue(d.Get(id))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ps.At(id).Name, err)
		}
		out[ps.At(id).Name] = v
	}
	return out, nil
}

func decodeDescriptor(ps *core.PropertySet, props map[string]PropValue) (*core.Descriptor, error) {
	d := core.NewDescriptor(ps)
	for name, pv := range props {
		id, ok := ps.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("wire: unknown property %q", name)
		}
		v, err := decodeValue(pv)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		// Descriptor.Set panics on a kind mismatch (a rule-spec bug
		// locally, but here the value came off the network); reject
		// mismatched payloads as errors instead. Numeric kinds coerce
		// freely, mirroring Set.
		if want, got := ps.At(id).Kind, v.Kind(); got != want && !numericWireKinds(got, want) {
			return nil, fmt.Errorf("wire: property %q holds %v, payload sent %v", name, want, got)
		}
		d.Set(id, v)
	}
	return d, nil
}

func numericWireKinds(a, b core.Kind) bool {
	num := func(k core.Kind) bool {
		return k == core.KindFloat || k == core.KindCost || k == core.KindInt
	}
	return num(a) && num(b)
}

// EncodePlan serializes an access plan; DecodePlan is its inverse.
func EncodePlan(p *core.Expr) (*PlanNode, error) {
	if p == nil {
		return nil, nil
	}
	props, err := encodeDescriptor(p.D)
	if err != nil {
		return nil, err
	}
	n := &PlanNode{File: p.File, Props: props}
	if !p.IsLeaf() {
		n.Op = p.Op.Name
	}
	for _, k := range p.Kids {
		kn, err := EncodePlan(k)
		if err != nil {
			return nil, err
		}
		n.Kids = append(n.Kids, kn)
	}
	return n, nil
}

// DecodePlan rebuilds a core operator tree from a serialized plan using
// the world's algebra (algorithm names and property kinds). The result
// is an access plan the exec compiler accepts.
func DecodePlan(alg *core.Algebra, n *PlanNode) (*core.Expr, error) {
	if n == nil {
		return nil, fmt.Errorf("wire: nil plan node")
	}
	d, err := decodeDescriptor(alg.Props, n.Props)
	if err != nil {
		return nil, err
	}
	if n.Op == "" {
		if n.File == "" {
			return nil, fmt.Errorf("wire: plan node with neither op nor file")
		}
		return core.NewLeaf(n.File, d), nil
	}
	op, ok := alg.Op(n.Op)
	if !ok {
		return nil, fmt.Errorf("wire: unknown algorithm %q", n.Op)
	}
	// core.NewNode panics on an arity mismatch; a malformed payload must
	// come back as an error instead.
	if len(n.Kids) != op.Arity {
		return nil, fmt.Errorf("wire: %s expects %d inputs, payload has %d", op.Name, op.Arity, len(n.Kids))
	}
	kids := make([]*core.Expr, len(n.Kids))
	for i, k := range n.Kids {
		kids[i], err = DecodePlan(alg, k)
		if err != nil {
			return nil, err
		}
	}
	return core.NewNode(op, d, kids...), nil
}
