package volcano

import (
	"fmt"
	"strings"

	"prairie/internal/core"
)

// PExpr is a physical expression: a node of an access plan produced by
// the search. Its descriptor carries the algorithm's full Prairie
// descriptor including the computed cost.
type PExpr struct {
	Alg  *core.Operation // nil for a stored-file leaf
	File string          // leaf only
	D    *core.Descriptor
	Kids []*PExpr
}

// IsLeaf reports whether the node is a stored file.
func (p *PExpr) IsLeaf() bool { return p.Alg == nil }

// Clone deep-copies the plan, including descriptors; the plan cache
// detaches entries from any memo-owned state on the way in and hands
// each hit its own copy on the way out.
func (p *PExpr) Clone() *PExpr {
	if p == nil {
		return nil
	}
	q := &PExpr{Alg: p.Alg, File: p.File}
	if p.D != nil {
		q.D = p.D.Clone()
	}
	if len(p.Kids) > 0 {
		q.Kids = make([]*PExpr, len(p.Kids))
		for i, k := range p.Kids {
			q.Kids[i] = k.Clone()
		}
	}
	return q
}

// Cost returns the plan's estimated cost under the classification.
func (p *PExpr) Cost(class Classification) float64 {
	if p.D == nil {
		return 0
	}
	return p.D.Float(class.Cost)
}

// ToExpr converts the plan to a core operator tree (an access plan in
// the paper's terms), sharing descriptors.
func (p *PExpr) ToExpr() *core.Expr {
	if p.IsLeaf() {
		return core.NewLeaf(p.File, p.D)
	}
	kids := make([]*core.Expr, len(p.Kids))
	for i, k := range p.Kids {
		kids[i] = k.ToExpr()
	}
	return core.NewNode(p.Alg, p.D, kids...)
}

// PlanFromExpr rebuilds a PExpr from a core operator tree — the
// inverse of ToExpr, sharing descriptors the same way. The cache-entry
// codec (wire.DecodeEntry) uses it to rehydrate decoded plans.
func PlanFromExpr(e *core.Expr) *PExpr {
	if e == nil {
		return nil
	}
	if e.IsLeaf() {
		return &PExpr{File: e.File, D: e.D}
	}
	kids := make([]*PExpr, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = PlanFromExpr(k)
	}
	return &PExpr{Alg: e.Op, D: e.D, Kids: kids}
}

// String renders the plan in functional notation, e.g.
// "Merge_sort(Nested_loops(File_scan(R1), File_scan(R2)))".
func (p *PExpr) String() string {
	if p.IsLeaf() {
		return p.File
	}
	parts := make([]string, len(p.Kids))
	for i, k := range p.Kids {
		parts[i] = k.String()
	}
	return p.Alg.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Format renders an indented outline with per-node descriptors.
func (p *PExpr) Format() string { return p.ToExpr().Format() }

// Algorithms returns the distinct algorithm names used by the plan.
func (p *PExpr) Algorithms() []string {
	seen := map[string]bool{}
	var out []string
	var walk func(*PExpr)
	walk = func(n *PExpr) {
		if !n.IsLeaf() && !seen[n.Alg.Name] {
			seen[n.Alg.Name] = true
			out = append(out, n.Alg.Name)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(p)
	return out
}

// Size returns the number of plan nodes.
func (p *PExpr) Size() int {
	n := 1
	for _, k := range p.Kids {
		n += k.Size()
	}
	return n
}

// Explain renders the plan as an indented tree with each node's
// estimated cost under the classification — the per-node view a rule
// writer debugs cost formulas with.
func (p *PExpr) Explain(class Classification) string {
	var b strings.Builder
	p.explain(&b, class, 0)
	return b.String()
}

func (p *PExpr) explain(b *strings.Builder, class Classification, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if p.IsLeaf() {
		fmt.Fprintf(b, "%s (stored file)\n", p.File)
		return
	}
	fmt.Fprintf(b, "%s  cost=%.1f", p.Alg.Name, p.Cost(class))
	if p.D != nil {
		for _, id := range class.Phys {
			if p.D.Has(id) && !p.D.Get(id).IsDontCare() {
				fmt.Fprintf(b, "  %s=%s", p.D.Props().At(id).Name, p.D.Get(id))
			}
		}
	}
	b.WriteByte('\n')
	for _, k := range p.Kids {
		k.explain(b, class, depth+1)
	}
}
