package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func testProps() (*PropertySet, PropID, PropID, PropID, PropID) {
	ps := NewPropertySet()
	ord := ps.Define("tuple_order", KindOrder)
	nr := ps.Define("num_records", KindFloat)
	pred := ps.Define("join_predicate", KindPred)
	cost := ps.Define("cost", KindCost)
	return ps, ord, nr, pred, cost
}

func TestPropertySetDefine(t *testing.T) {
	ps, ord, _, _, cost := testProps()
	if ps.Len() != 4 {
		t.Fatalf("Len = %d", ps.Len())
	}
	if again := ps.Define("tuple_order", KindOrder); again != ord {
		t.Error("redefinition should return same id")
	}
	defer func() {
		if recover() == nil {
			t.Error("redefining with different kind should panic")
		}
	}()
	_ = cost
	ps.Define("tuple_order", KindPred)
}

func TestPropertySetLookup(t *testing.T) {
	ps, _, nr, _, cost := testProps()
	if id, ok := ps.Lookup("num_records"); !ok || id != nr {
		t.Error("Lookup failed")
	}
	if _, ok := ps.Lookup("missing"); ok {
		t.Error("Lookup found missing property")
	}
	if ps.MustLookup("cost") != cost {
		t.Error("MustLookup failed")
	}
	if got := ps.CostProps(); len(got) != 1 || got[0] != cost {
		t.Errorf("CostProps = %v", got)
	}
	names := ps.Names()
	if len(names) != 4 || names[0] != "tuple_order" {
		t.Errorf("Names = %v", names)
	}
	sorted := ps.SortedIDs()
	if ps.At(sorted[0]).Name != "cost" {
		t.Errorf("SortedIDs first = %v", ps.At(sorted[0]).Name)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup of missing property should panic")
		}
	}()
	ps.MustLookup("missing")
}

func TestDescriptorGetSetDefaults(t *testing.T) {
	ps, ord, nr, pred, cost := testProps()
	d := NewDescriptor(ps)
	// Unset properties read as defaults, never nil.
	if !d.Get(ord).IsDontCare() {
		t.Error("unset order should default to DONT_CARE")
	}
	if d.Float(nr) != 0 {
		t.Error("unset float should default to 0")
	}
	if !d.Pred(pred).IsTrue() {
		t.Error("unset pred should default to TRUE")
	}
	if d.Has(ord) {
		t.Error("Has should be false before Set")
	}
	d.Set(ord, OrderBy(A("R", "x")))
	d.SetFloat(nr, 42)
	d.Set(cost, Cost(7))
	if !d.Has(ord) || d.Float(nr) != 42 || d.Float(cost) != 7 {
		t.Error("Set/Get roundtrip failed")
	}
	d.Unset(ord)
	if d.Has(ord) {
		t.Error("Unset failed")
	}
}

func TestDescriptorNumericCoercion(t *testing.T) {
	ps, _, nr, _, cost := testProps()
	d := NewDescriptor(ps)
	// Rule arithmetic freely mixes float and cost.
	d.Set(cost, Float(3.5))
	if v, ok := d.Get(cost).(Cost); !ok || v != 3.5 {
		t.Errorf("cost coercion: %v", d.Get(cost))
	}
	d.Set(nr, Cost(9))
	if v, ok := d.Get(nr).(Float); !ok || v != 9 {
		t.Errorf("float coercion: %v", d.Get(nr))
	}
	d.Set(nr, Int(4))
	if d.Float(nr) != 4 {
		t.Errorf("int->float coercion: %v", d.Get(nr))
	}
}

func TestDescriptorKindMismatchPanics(t *testing.T) {
	ps, ord, _, _, _ := testProps()
	d := NewDescriptor(ps)
	defer func() {
		if recover() == nil {
			t.Error("setting pred into order property should panic")
		}
	}()
	d.Set(ord, TruePred)
}

func TestDescriptorCopyCloneMerge(t *testing.T) {
	ps, ord, nr, _, cost := testProps()
	a := NewDescriptor(ps)
	a.Set(ord, OrderBy(A("R", "x")))
	a.SetFloat(nr, 10)

	b := NewDescriptor(ps)
	b.Set(cost, Cost(5))
	b.CopyFrom(a) // the paper's "D_b = D_a": full overwrite
	if b.Has(cost) {
		t.Error("CopyFrom should clear properties unset in source")
	}
	if b.Float(nr) != 10 {
		t.Error("CopyFrom missed a property")
	}

	c := a.Clone()
	c.SetFloat(nr, 99)
	if a.Float(nr) != 10 {
		t.Error("Clone is not independent")
	}

	m := NewDescriptor(ps)
	m.Set(cost, Cost(5))
	m.Merge(a) // only explicitly-set properties move
	if !m.Has(cost) || m.Float(cost) != 5 {
		t.Error("Merge should preserve target-only properties")
	}
	if m.Float(nr) != 10 {
		t.Error("Merge missed a property")
	}
}

func TestDescriptorProjectionHashEqual(t *testing.T) {
	ps, ord, nr, _, cost := testProps()
	a := NewDescriptor(ps)
	b := NewDescriptor(ps)
	a.Set(ord, OrderBy(A("R", "x")))
	b.Set(ord, OrderBy(A("R", "x")))
	a.SetFloat(nr, 1)
	b.SetFloat(nr, 2)
	proj := []PropID{ord, cost}
	if !a.EqualOn(b, proj) {
		t.Error("EqualOn should ignore properties outside projection")
	}
	if a.HashOn(proj) != b.HashOn(proj) {
		t.Error("HashOn should ignore properties outside projection")
	}
	if a.EqualOn(b, []PropID{nr}) {
		t.Error("EqualOn missed a difference")
	}
	// Unset vs default-set must compare equal (Get semantics).
	c := NewDescriptor(ps)
	d := NewDescriptor(ps)
	d.Set(ord, DontCareOrder)
	if !c.EqualOn(d, proj) || c.HashOn(proj) != d.HashOn(proj) {
		t.Error("unset and default-set should be projection-equal")
	}
}

func TestDescriptorSatisfiesOn(t *testing.T) {
	ps, ord, nr, _, _ := testProps()
	phys := []PropID{ord}
	have := NewDescriptor(ps)
	req := NewDescriptor(ps)
	// Unset request: always satisfied.
	if !have.SatisfiesOn(req, phys) {
		t.Error("empty request should be satisfied")
	}
	req.Set(ord, DontCareOrder)
	if !have.SatisfiesOn(req, phys) {
		t.Error("DONT_CARE request should be satisfied")
	}
	req.Set(ord, OrderBy(A("R", "x")))
	if have.SatisfiesOn(req, phys) {
		t.Error("unsorted stream should not satisfy an order request")
	}
	have.Set(ord, OrderBy(A("R", "x"), A("R", "y")))
	if !have.SatisfiesOn(req, phys) {
		t.Error("prefix order should satisfy the request")
	}
	// Non-order kinds compare by equality.
	req.SetFloat(nr, 5)
	if have.SatisfiesOn(req, []PropID{ord, nr}) {
		t.Error("unequal float should not satisfy")
	}
	have.SetFloat(nr, 5)
	if !have.SatisfiesOn(req, []PropID{ord, nr}) {
		t.Error("equal float should satisfy")
	}
}

func TestDescriptorString(t *testing.T) {
	ps, ord, nr, _, _ := testProps()
	d := NewDescriptor(ps)
	d.Set(ord, OrderBy(A("R", "x")))
	d.SetFloat(nr, 3)
	s := d.String()
	if !strings.Contains(s, "tuple_order=<R.x>") || !strings.Contains(s, "num_records=3") {
		t.Errorf("String = %q", s)
	}
}

func TestDescriptorCopyFromQuick(t *testing.T) {
	ps, _, nr, _, cost := testProps()
	// Property: after CopyFrom, the two descriptors are projection-equal
	// on all properties.
	all := []PropID{0, 1, 2, 3}
	if err := quick.Check(func(x, y float64) bool {
		a := NewDescriptor(ps)
		a.SetFloat(nr, x)
		a.Set(cost, Cost(y))
		b := NewDescriptor(ps)
		b.CopyFrom(a)
		return b.EqualOn(a, all) && b.HashOn(all) == a.HashOn(all)
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestDescriptorOneAllocation: a descriptor and its value slots are one
// heap object for every property-set size up to len(blocks), sized to the
// set; reading an unset property allocates nothing (the defaults are
// boxed once); and a descriptor outgrows its inline slots by append.
func TestDescriptorOneAllocation(t *testing.T) {
	// 48+16n bytes is an allocator size class for every n ≤ len(blocks).
	if got := unsafe.Sizeof(Descriptor{}); got != 48 {
		t.Errorf("Descriptor is %d bytes, want 48", got)
	}
	for n := 0; n <= len(blocks)+2; n++ {
		ps := NewPropertySet()
		for i := 0; i < n; i++ {
			ps.Define(fmt.Sprintf("p%d", i), KindOrder)
		}
		want := 1.0
		if n > len(blocks) {
			want = 2
		}
		var d *Descriptor
		if got := testing.AllocsPerRun(10, func() { d = NewDescriptor(ps) }); got != want {
			t.Errorf("NewDescriptor over %d properties: %v allocations, want %v", n, got, want)
		}
		if len(d.vals) != n || cap(d.vals) != n || d.ps != ps {
			t.Errorf("%d properties: %d slots of capacity %d", n, len(d.vals), cap(d.vals))
		}
		if got := testing.AllocsPerRun(10, func() { _ = d.Clone() }); got != want {
			t.Errorf("Clone over %d properties: %v allocations, want %v", n, got, want)
		}
		if n == 0 {
			continue
		}
		if got := testing.AllocsPerRun(10, func() { _ = d.Get(0); _ = d.HashOn([]PropID{0}) }); got != 0 {
			t.Errorf("reading an unset order property allocates %v times", got)
		}
		// The property set grows after the descriptor was made (P2V adds
		// properties): Set and CopyFrom past the inline slots still work.
		late := ps.Define("late", KindInt)
		d.Set(late, Int(7))
		d.Set(0, OrderBy(A("R", "a")))
		wide := NewDescriptor(ps)
		wide.CopyFrom(d)
		narrow := allocDescriptor(ps, n)
		narrow.CopyFrom(wide)
		c := narrow.Clone()
		for _, x := range []*Descriptor{d, wide, narrow, c} {
			if x.Get(late) != Int(7) || !x.Get(0).Equal(OrderBy(A("R", "a"))) || len(x.vals) != n+1 {
				t.Errorf("%d+1 properties: descriptor reads %v", n, x)
			}
		}
	}
}
