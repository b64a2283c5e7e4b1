package qgen

import (
	"strings"
	"testing"

	"prairie/internal/core"
	"prairie/internal/oodb"
)

func TestQueries(t *testing.T) {
	qs := Queries()
	if len(qs) != 8 {
		t.Fatalf("queries = %d", len(qs))
	}
	if qs[0].Name != "Q1" || qs[0].Expr != E1 || qs[0].Indexed {
		t.Errorf("Q1 = %+v", qs[0])
	}
	if qs[7].Name != "Q8" || qs[7].Expr != E4 || !qs[7].Indexed {
		t.Errorf("Q8 = %+v", qs[7])
	}
	if len(InstanceSeeds()) != 5 {
		t.Error("the paper averages over 5 instances")
	}
}

func TestExprKindProperties(t *testing.T) {
	if E1.HasMat() || E3.HasMat() || !E2.HasMat() || !E4.HasMat() {
		t.Error("HasMat wrong")
	}
	if E1.HasSelect() || E2.HasSelect() || !E3.HasSelect() || !E4.HasSelect() {
		t.Error("HasSelect wrong")
	}
	if E3.String() != "E3" {
		t.Errorf("String = %s", E3)
	}
}

func TestBuildShapes(t *testing.T) {
	o := oodb.New(Catalog(3, 7, true))
	cases := map[ExprKind]string{
		E1: "JOIN(JOIN(RET(C1), RET(C2)), RET(C3))",
		E2: "JOIN(JOIN(MAT(RET(C1)), MAT(RET(C2))), MAT(RET(C3)))",
		E3: "SELECT(JOIN(JOIN(RET(C1), RET(C2)), RET(C3)))",
		E4: "SELECT(JOIN(JOIN(MAT(RET(C1)), MAT(RET(C2))), MAT(RET(C3))))",
	}
	for e, want := range cases {
		tree, err := Build(o, e, 3)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if got := tree.String(); got != want {
			t.Errorf("%v = %s, want %s", e, got, want)
		}
		if !tree.IsLogical() {
			t.Errorf("%v is not a pure operator tree", e)
		}
	}
}

func TestBuildDescriptors(t *testing.T) {
	o := oodb.New(Catalog(2, 7, true))
	tree, err := Build(o, E4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Root SELECT: conjunction of per-class equality terms, estimated
	// cardinality strictly below the join's.
	sel := tree.D.Pred(o.SP)
	if len(sel.Conjuncts()) != 2 {
		t.Errorf("selection = %v", sel)
	}
	if !strings.Contains(sel.String(), "C1.b = 1") || !strings.Contains(sel.String(), "C2.b = 2") {
		t.Errorf("selection terms = %v", sel)
	}
	join := tree.Kids[0]
	if !(tree.D.Float(o.NR) < join.D.Float(o.NR)) {
		t.Error("selection did not reduce the estimate")
	}
	if !join.D.Pred(o.JP).IsEquiJoin() {
		t.Errorf("join predicate = %v", join.D.Pred(o.JP))
	}
	// MAT nodes carry the pointer attribute and widened schema.
	mat := join.Kids[0]
	ma := mat.D.AttrList(o.MA)
	if len(ma) != 1 || ma[0] != core.A("C1", "ref") {
		t.Errorf("mat_attribute = %v", ma)
	}
	if !mat.D.AttrList(o.AT).Contains(core.A("S1", "x")) {
		t.Error("MAT schema missing target attributes")
	}
	// Leaves carry index metadata; RETs do not.
	ret := mat.Kids[0]
	leaf := ret.Kids[0]
	if len(leaf.D.AttrList(o.IX)) == 0 {
		t.Error("leaf missing index metadata")
	}
	if ret.D.Has(o.IX) {
		t.Error("RET stream should not carry index metadata")
	}
	if !ret.D.Pred(o.SP).IsTrue() {
		t.Error("initial RET selection should be TRUE")
	}
}

func TestBuildErrors(t *testing.T) {
	o := oodb.New(Catalog(2, 7, false))
	if _, err := Build(o, E1, 0); err == nil {
		t.Error("zero classes accepted")
	}
	if _, err := Build(o, E1, 5); err == nil {
		t.Error("classes beyond the catalog accepted")
	}
}

func TestCatalogVariation(t *testing.T) {
	a := Catalog(3, InstanceSeeds()[0], false)
	b := Catalog(3, InstanceSeeds()[1], false)
	varies := false
	for i := 1; i <= 3; i++ {
		name := "C" + string(rune('0'+i))
		if a.MustClass(name).Card != b.MustClass(name).Card {
			varies = true
		}
	}
	if !varies {
		t.Error("instance seeds should vary cardinalities")
	}
	if !Catalog(2, 1, true).MustClass("C1").HasIndex("b") {
		t.Error("indexed catalog missing index")
	}
	if Catalog(2, 1, false).MustClass("C1").HasIndex("b") {
		t.Error("unindexed catalog has index")
	}
}

func TestBuildStarGraph(t *testing.T) {
	o := oodb.New(Catalog(4, 7, false))
	tree, err := BuildGraph(o, E1, 4, Star)
	if err != nil {
		t.Fatal(err)
	}
	// Every join predicate references the hub C1.
	var walk func(e *core.Expr)
	joins := 0
	walk = func(e *core.Expr) {
		if e.IsLeaf() {
			return
		}
		if e.Op.Name == "JOIN" {
			joins++
			attrs := e.D.Pred(o.JP).Attrs()
			found := false
			for _, a := range attrs {
				if a.Rel() == "C1" {
					found = true
				}
			}
			if !found {
				t.Errorf("star predicate does not touch the hub: %v", e.D.Pred(o.JP))
			}
		}
		for _, k := range e.Kids {
			walk(k)
		}
	}
	walk(tree)
	if joins != 3 {
		t.Errorf("joins = %d", joins)
	}
}
