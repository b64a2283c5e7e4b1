package core

import (
	"strings"
	"testing"
)

// miniAlgebra builds the paper's running example (Table 1): RET, JOIN,
// SORT with File_scan, Index_scan, Nested_loops, Merge_join, Merge_sort
// and Null.
func miniAlgebra() *Algebra {
	a := NewAlgebra("mini")
	a.Props.Define("tuple_order", KindOrder)
	a.Props.Define("join_predicate", KindPred)
	a.Props.Define("selection_predicate", KindPred)
	a.Props.Define("attributes", KindAttrs)
	a.Props.Define("num_records", KindFloat)
	a.Props.Define("cost", KindCost)
	a.Operator("RET", 1)
	a.Operator("JOIN", 2)
	a.Operator("SORT", 1)
	a.Algorithm("File_scan", 1)
	a.Algorithm("Index_scan", 1)
	a.Algorithm("Nested_loops", 2)
	a.Algorithm("Merge_join", 2)
	a.Algorithm("Merge_sort", 1)
	a.Null()
	return a
}

func TestAlgebraRegistration(t *testing.T) {
	a := miniAlgebra()
	join := a.MustOp("JOIN")
	if join.Kind != Operator || join.Arity != 2 {
		t.Errorf("JOIN = %v/%d", join.Kind, join.Arity)
	}
	if got := a.Operator("JOIN", 2); got != join {
		t.Error("re-registration should return same operation")
	}
	if _, ok := a.Op("NOPE"); ok {
		t.Error("found unknown op")
	}
	if !a.Null().IsNull() {
		t.Error("Null algorithm not recognized")
	}
	if a.Null() != a.MustOp("Null") {
		t.Error("Null not registered by name")
	}
	ops := a.Operators()
	if len(ops) != 3 || ops[0].Name != "JOIN" {
		t.Errorf("Operators = %v", ops)
	}
	if len(a.Algorithms()) != 6 {
		t.Errorf("Algorithms = %v", a.Algorithms())
	}
	if a.NumOps() != 9 {
		t.Errorf("NumOps = %d", a.NumOps())
	}
	seen := map[int]bool{}
	for _, o := range a.Operations() {
		if seen[o.Index()] {
			t.Error("duplicate operation index")
		}
		seen[o.Index()] = true
	}
}

func TestAlgebraRedefinitionPanics(t *testing.T) {
	a := miniAlgebra()
	defer func() {
		if recover() == nil {
			t.Error("arity conflict should panic")
		}
	}()
	a.Operator("JOIN", 3)
}

func TestExprConstruction(t *testing.T) {
	a := miniAlgebra()
	d := func() *Descriptor { return a.NewDesc() }
	ret := a.MustOp("RET")
	join := a.MustOp("JOIN")
	sortOp := a.MustOp("SORT")
	e := NewNode(sortOp, d(),
		NewNode(join, d(),
			NewNode(ret, d(), NewLeaf("R1", d())),
			NewNode(ret, d(), NewLeaf("R2", d()))))
	if got := e.String(); got != "SORT(JOIN(RET(R1), RET(R2)))" {
		t.Errorf("String = %q", got)
	}
	if !e.IsLogical() || e.IsPlan() {
		t.Error("operator tree misclassified")
	}
	if e.Size() != 6 {
		t.Errorf("Size = %d", e.Size())
	}
	if got := e.Leaves(); len(got) != 2 || got[0] != "R1" || got[1] != "R2" {
		t.Errorf("Leaves = %v", got)
	}
	c := e.Clone()
	c.Kids[0].D.SetFloat(a.Props.MustLookup("num_records"), 5)
	if e.Kids[0].D.Has(a.Props.MustLookup("num_records")) {
		t.Error("Clone shares descriptors")
	}
	plan := NewNode(a.MustOp("Nested_loops"), d(),
		NewNode(a.MustOp("File_scan"), d(), NewLeaf("R1", d())),
		NewNode(a.MustOp("File_scan"), d(), NewLeaf("R2", d())))
	if !plan.IsPlan() || plan.IsLogical() {
		t.Error("access plan misclassified")
	}
	if !strings.Contains(e.Format(), "  JOIN") {
		t.Errorf("Format = %q", e.Format())
	}
}

func TestNewNodeArityPanics(t *testing.T) {
	a := miniAlgebra()
	defer func() {
		if recover() == nil {
			t.Error("wrong arity should panic")
		}
	}()
	NewNode(a.MustOp("JOIN"), a.NewDesc(), NewLeaf("R1", a.NewDesc()))
}

func TestPatternBasics(t *testing.T) {
	a := miniAlgebra()
	join := a.MustOp("JOIN")
	// JOIN(JOIN(?1:D1, ?2:D2):D3, ?3:D4):D5 — the join associativity LHS.
	p := POp(join, "D5",
		POp(join, "D3", PVar(1, "D1"), PVar(2, "D2")),
		PVar(3, "D4"))
	if got := p.String(); got != "JOIN(JOIN(?1:D1, ?2:D2):D3, ?3:D4):D5" {
		t.Errorf("String = %q", got)
	}
	if got := p.DescNames(); len(got) != 5 || got[0] != "D5" {
		t.Errorf("DescNames = %v", got)
	}
	if p.Depth() != 2 {
		t.Errorf("Depth = %d", p.Depth())
	}
	if ops := p.Ops(); len(ops) != 1 || ops[0] != join {
		t.Errorf("Ops = %v", ops)
	}
	c := p.Clone()
	c.Kids[1].Desc = "DX"
	if p.Kids[1].Desc != "D4" {
		t.Error("Clone shares nodes")
	}
	if !PVar(1, "").IsVar() || p.IsVar() {
		t.Error("IsVar wrong")
	}
	if PVar(1, "").Depth() != 0 {
		t.Error("var depth should be 0")
	}
}

func TestBinding(t *testing.T) {
	a := miniAlgebra()
	b := NewBinding(a.Props)
	d3 := b.D("D3") // auto-created
	if !b.Bound("D3") || b.Bound("D4") {
		t.Error("Bound wrong")
	}
	if b.D("D3") != d3 {
		t.Error("D should return the same descriptor")
	}
	if d3.Name != "D3" {
		t.Error("descriptor not tagged with its name")
	}
	ext := a.NewDesc()
	b.Bind("D4", ext)
	if b.D("D4") != ext {
		t.Error("Bind failed")
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "D3" {
		t.Errorf("Names = %v", names)
	}
}

// TestBindingFrame covers the frame-laid binding the engine and the
// compiled actions use: slots from NewFrame, by-name access over the
// same slots, adoption of a binding built by name, and recycling.
func TestBindingFrame(t *testing.T) {
	a := miniAlgebra()
	join := a.MustOp("JOIN")
	nr := a.Props.MustLookup("num_records")
	lhs := POp(join, "D5", POp(join, "D3", PVar(1, "D1"), PVar(2, "")), PVar(3, "D4"))
	rhs := POp(join, "D7", PVar(1, ""), POp(join, "", PVar(2, ""), PVar(3, "D4")))
	f := NewFrame(lhs, rhs)
	if got := strings.Join(f.Names, ","); got != "D5,D3,D1,D4,D7," {
		t.Fatalf("frame = %q", got)
	}
	if lhs.Slot != 0 || lhs.Kids[0].Kids[1].Slot != -1 || rhs.Slot != 4 ||
		rhs.Kids[1].Slot != 5 || rhs.Kids[1].Kids[1].Slot != 3 || rhs.Clone().Kids[1].Slot != 5 {
		t.Error("pattern slots wrong")
	}

	b := NewBinding(a.Props)
	b.Scratch = true
	b.Reset(f)
	d5 := a.NewDesc()
	b.BindSlot(0, d5)
	if b.D("D5") != d5 || b.Slot(0) != d5 || !b.Bound("D5") || b.Bound("D7") {
		t.Error("slot and name access disagree")
	}
	d7 := b.Slot(4)
	d7.SetFloat(nr, 9)
	if d7.Name != "D7" || b.D("D7") != d7 || b.D("extra") == nil || len(b.Names()) != 3 {
		t.Errorf("created descriptors wrong: %v", b.Names())
	}
	// The next firing keeps what the matcher bound, drops what the
	// actions created, and hands the same descriptor out again, empty.
	b.BeginFiring()
	if b.Slot(0) != d5 || b.Bound("D7") || b.Bound("extra") {
		t.Errorf("BeginFiring kept %v", b.Names())
	}
	if again := b.Slot(4); again != d7 || again.Has(nr) {
		t.Error("scratch descriptor not recycled empty")
	}
	// Reset recycles too; what the binding recycles it owns, what was
	// bound into it it does not.
	b.Reset(f)
	if b.Slot(4) != d7 || !b.Owns(d7) || b.Owns(d5) {
		t.Error("Reset must recycle by slot, and Owns tell recycled from bound")
	}
	// Without Scratch every firing allocates, and the binding owns nothing.
	plain := NewBinding(a.Props)
	plain.Reset(f)
	kept := plain.Slot(4)
	plain.BeginFiring()
	if !plain.Bound("D7") || plain.Slot(4) != kept || plain.Owns(kept) {
		t.Error("a plain binding must keep the descriptors its actions made")
	}

	// A binding built by name is rearranged on Enter, not emptied.
	byName := NewBinding(a.Props)
	d3 := byName.D("D3")
	byName.Bind("D9", d5)
	byName.Enter(f)
	if byName.Slot(1) != d3 || byName.D("D9") != d5 || byName.Bound("D5") {
		t.Errorf("Enter lost bindings: %v", byName.Names())
	}
	g := &Frame{Names: []string{"D1"}, Args: 3}
	byName.Enter(g)
	if len(byName.Args) != 3 || byName.D("D3") != d3 {
		t.Error("Enter did not size the argument slots of the new frame")
	}
}

func TestIRuleAccessors(t *testing.T) {
	a := miniAlgebra()
	join := a.MustOp("JOIN")
	nl := a.MustOp("Nested_loops")
	r := &IRule{
		Name: "nl",
		LHS:  POp(join, "D3", PVar(1, "D1"), PVar(2, "D2")),
		RHS:  POp(nl, "D5", PVar(1, "D4"), PVar(2, "")),
	}
	if r.Op() != join || r.Alg() != nl || r.IsNullRule() {
		t.Error("accessors wrong")
	}
	if !r.RunTest(NewBinding(a.Props)) {
		t.Error("nil test should be TRUE")
	}
	sortOp := a.MustOp("SORT")
	nullRule := &IRule{
		Name: "null_sort",
		LHS:  POp(sortOp, "D2", PVar(1, "D1")),
		RHS:  POp(a.Null(), "D4", PVar(1, "D3")),
	}
	if !nullRule.IsNullRule() {
		t.Error("Null rule not detected")
	}
}
