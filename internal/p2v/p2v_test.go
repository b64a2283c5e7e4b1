package p2v

import (
	"fmt"
	"strings"
	"testing"

	"prairie/internal/core"
	"prairie/internal/prairielang"
	"prairie/internal/volcano"
)

// specSrc is a compact Prairie specification exercising every P2V
// feature: an enforcer-operator (SORT) with a Null rule, an
// enforcer-introduction T-rule that merges away (JOIN => JOPR), and
// physical-property assignments in pre-opt sections.
const specSrc = `
algebra spec;
property tuple_order : order;
property num_records : float;
property cost : cost;
operator RET(1);
operator JOIN(2);
operator JOPR(2);
operator SORT(1);
algorithm File_scan(1);
algorithm Nested_loops(2);
algorithm Merge_sort(1);
algorithm Null(1);

trule join_to_jopr:
  JOIN(?1:D1, ?2:D2):D3 => JOPR(SORT(?1):D4, SORT(?2):D5):D6
posttest { D6 = D3; }

trule join_commute:
  JOIN(?1:D1, ?2:D2):D3 => JOIN(?2, ?1):D4
posttest { D4 = D3; }

irule ret_file_scan:
  RET(?1:D1):D2 => File_scan(?1):D3
preopt { D3 = D2; D3.tuple_order = DONT_CARE; }
postopt { D3.cost = D1.num_records; }

irule jopr_nested_loops:
  JOPR(?1:D1, ?2:D2):D3 => Nested_loops(?1:D4, ?2):D5
preopt { D5 = D3; D4 = D1; D4.tuple_order = D3.tuple_order; }
postopt { D5.cost = D4.cost + D4.num_records * D2.cost; }

irule sort_merge_sort:
  SORT(?1:D1):D2 => Merge_sort(?1):D3
test (D2.tuple_order != DONT_CARE)
preopt { D3 = D2; }
postopt { D3.cost = D1.cost + D3.num_records; }

irule sort_null:
  SORT(?1:D1):D2 => Null(?1:D3):D4
preopt { D4 = D2; D3 = D1; D3.tuple_order = D2.tuple_order; }
postopt { D4.cost = D3.cost; }
`

// specWorld is specSrc compiled, with handles on its algebra.
type specWorld struct {
	alg        *core.Algebra
	rs         *core.RuleSet
	ord, nr, c core.PropID
	join, jopr *core.Operation
	sort, ret  *core.Operation
	nl, ms, fs *core.Operation
}

func newSpecWorld(t *testing.T) *specWorld {
	t.Helper()
	rs, err := prairielang.ParseAndCompile(specSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := rs.Algebra
	return &specWorld{
		alg: a, rs: rs,
		ord: a.Props.MustLookup("tuple_order"), nr: a.Props.MustLookup("num_records"), c: a.Props.MustLookup("cost"),
		join: a.MustOp("JOIN"), jopr: a.MustOp("JOPR"), sort: a.MustOp("SORT"), ret: a.MustOp("RET"),
		nl: a.MustOp("Nested_loops"), ms: a.MustOp("Merge_sort"), fs: a.MustOp("File_scan"),
	}
}

func TestTranslateSpecWorld(t *testing.T) {
	w := newSpecWorld(t)
	vrs, rep, err := Translate(w.rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vrs.Trans) != 1 || vrs.Trans[0].Name != "join_commute" {
		t.Errorf("trans = %v", vrs.Trans)
	}
	if len(vrs.Impls) != 2 {
		t.Errorf("impls = %d", len(vrs.Impls))
	}
	// The JOPR impl rule now targets JOIN.
	for _, r := range vrs.Impls {
		if r.Name == "jopr_nested_loops" && r.Op != w.join {
			t.Errorf("jopr rule targets %v", r.Op)
		}
	}
	if len(vrs.Enforcers) != 1 || vrs.Enforcers[0].Alg != w.ms {
		t.Errorf("enforcers = %v", vrs.Enforcers)
	}
	if got := vrs.Enforcers[0].Props; len(got) != 1 || got[0] != w.ord {
		t.Errorf("enforced props = %v", got)
	}
	if rep.Aliases["JOPR"] != "JOIN" {
		t.Errorf("aliases = %v", rep.Aliases)
	}
	if !vrs.Class.IsPhys(w.ord) {
		t.Error("tuple_order not physical")
	}
	if vrs.Class.Cost != w.c {
		t.Error("cost not classified")
	}
	if !vrs.Class.IsArg(w.nr) {
		t.Error("num_records should be an argument property")
	}
}

// TestTranslateRejectsHandBuiltRules: P2V reads what the Prairie-language
// compiler derives from a rule — its frame, and a T-rule's slice — so a
// rule built by hand is refused by name, not translated.
func TestTranslateRejectsHandBuiltRules(t *testing.T) {
	w := newSpecWorld(t)
	w.rs.AddT(&core.TRule{
		Name: "hand_commute",
		LHS:  core.POp(w.join, "D3", core.PVar(1, "D1"), core.PVar(2, "D2")),
		RHS:  core.POp(w.join, "D4", core.PVar(2, ""), core.PVar(1, "")),
	})
	w.rs.AddI(&core.IRule{
		Name:    "hand_scan",
		LHS:     core.POp(w.ret, "D2", core.PVar(1, "D1")),
		RHS:     core.POp(w.fs, "D3", core.PVar(1, "")),
		PreOpt:  func(b *core.Binding) { b.D("D3").CopyFrom(b.D("D2")) },
		PostOpt: func(b *core.Binding) { b.D("D3").Set(w.c, core.Cost(1)) },
	})
	_, _, err := Translate(w.rs)
	if err == nil {
		t.Fatal("hand-built rules translated")
	}
	for _, name := range []string{"hand_commute", "hand_scan"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %s: %v", name, err)
		}
	}
	if strings.Contains(err.Error(), "join_commute") {
		t.Errorf("error names a compiled rule: %v", err)
	}
}

// TestWriteSetHelpers: the properties an I-rule requires of its inputs
// are read off its typed pre-opt writes, each once, sorted, the cost
// property apart.
func TestWriteSetHelpers(t *testing.T) {
	w := newSpecWorld(t)
	r := &core.IRule{
		Name: "nl",
		LHS:  core.POp(w.join, "D3", core.PVar(1, "D1"), core.PVar(2, "D2")),
		RHS:  core.POp(w.nl, "D5", core.PVar(1, "D4"), core.PVar(2, "D6")),
		PreWrites: []core.PropWrite{
			{Desc: "D4", Prop: 3}, {Desc: "D6", Prop: 1}, {Desc: "D4", Prop: 3}, {Desc: "D4", Prop: 2}, {Desc: "D6", Prop: 0},
		},
	}
	if got := inputWrites(r, 2); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("inputWrites = %v, want [0 1 3]", got)
	}
	r.PreWrites = nil
	if got := inputWrites(r, 2); len(got) != 0 {
		t.Errorf("inputWrites without writes = %v", got)
	}
}

// TestActionWritesFromHints: the compiler hints every per-property
// pre-opt assignment and no whole-descriptor copy, and only those on an
// input stream's descriptor mark a property physical.
func TestActionWritesFromHints(t *testing.T) {
	w := newSpecWorld(t)
	for _, r := range w.rs.IRules {
		var want []core.PropWrite
		switch r.Name {
		case "ret_file_scan":
			want = []core.PropWrite{{Desc: "D3", Prop: w.ord}}
		case "jopr_nested_loops":
			want = []core.PropWrite{{Desc: "D4", Prop: w.ord}}
		case "sort_null":
			want = []core.PropWrite{{Desc: "D3", Prop: w.ord}}
		}
		if fmt.Sprint(r.PreWrites) != fmt.Sprint(want) {
			t.Errorf("%s: pre-opt writes %v, want %v", r.Name, r.PreWrites, want)
		}
		got := inputWrites(r, w.c)
		if inputs := r.Name == "jopr_nested_loops" || r.Name == "sort_null"; inputs != (len(got) == 1 && got[0] == w.ord) {
			t.Errorf("%s: input writes %v", r.Name, got)
		}
	}
	if _, phys := classify(w.rs); len(phys) != 1 || phys[0] != w.ord {
		t.Errorf("physical properties %v, want tuple_order alone", phys)
	}
}

func TestDeleteEnforcerNodes(t *testing.T) {
	w := newSpecWorld(t)
	isEnf := func(op *core.Operation) bool { return op == w.sort }
	// JOPR(SORT(?1):D4, SORT(?2):D5):D6 -> JOPR(?1:D4, ?2:D5):D6
	p := core.POp(w.jopr, "D6",
		core.POp(w.sort, "D4", core.PVar(1, "")),
		core.POp(w.sort, "D5", core.PVar(2, "")))
	got := deleteEnforcerNodes(p, isEnf)
	if got.String() != "JOPR(?1:D4, ?2:D5):D6" {
		t.Errorf("rewritten = %s", got)
	}
	// SORT at the root with a var child reduces to the variable.
	root := core.POp(w.sort, "D2", core.PVar(1, "D1"))
	if got := deleteEnforcerNodes(root, isEnf); !got.IsVar() {
		t.Errorf("root SORT not deleted: %s", got)
	}
	// A pattern without enforcer nodes is returned unchanged (same node).
	q := core.POp(w.join, "D3", core.PVar(1, ""), core.PVar(2, ""))
	if deleteEnforcerNodes(q, isEnf) != q {
		t.Error("untouched pattern was copied")
	}
	// The child's existing descriptor name wins over the deleted node's.
	named := core.POp(w.sort, "D4", core.PVar(1, "D1"))
	if got := deleteEnforcerNodes(named, isEnf); got.Desc != "D1" {
		t.Errorf("descriptor = %s", got.Desc)
	}
}

func TestShapeEqualModuloRoot(t *testing.T) {
	w := newSpecWorld(t)
	a := core.POp(w.join, "DA", core.PVar(1, ""), core.PVar(2, ""))
	b := core.POp(w.jopr, "DB", core.PVar(1, ""), core.PVar(2, ""))
	same, differ := shapeEqualModuloRoot(a, b)
	if !same || !differ {
		t.Errorf("JOIN vs JOPR: same=%v differ=%v", same, differ)
	}
	c := core.POp(w.join, "DC", core.PVar(2, ""), core.PVar(1, ""))
	if same, _ := shapeEqualModuloRoot(a, c); same {
		t.Error("swapped variables considered same shape")
	}
	same, differ = shapeEqualModuloRoot(a, a)
	if !same || differ {
		t.Error("identical patterns misjudged")
	}
	deep := core.POp(w.join, "DD",
		core.POp(w.join, "DE", core.PVar(1, ""), core.PVar(2, "")),
		core.PVar(3, ""))
	if same, _ := shapeEqualModuloRoot(a, deep); same {
		t.Error("different arity shapes considered same")
	}
}

func TestResolveAliasChains(t *testing.T) {
	w := newSpecWorld(t)
	x := w.alg.Operator("X", 2)
	alias := map[*core.Operation]*core.Operation{
		w.jopr: x,
		x:      w.join,
	}
	resolveAliases(alias)
	if alias[w.jopr] != w.join || alias[x] != w.join {
		t.Errorf("alias resolution failed: %v", alias)
	}
}

func TestSubstAliases(t *testing.T) {
	w := newSpecWorld(t)
	alias := map[*core.Operation]*core.Operation{w.jopr: w.join}
	p := core.POp(w.jopr, "D6",
		core.POp(w.jopr, "D4", core.PVar(1, ""), core.PVar(2, "")),
		core.PVar(3, ""))
	got := substAliases(p, alias)
	for _, op := range got.Ops() {
		if op == w.jopr {
			t.Error("alias not substituted")
		}
	}
	// Unchanged pattern returns the same node.
	q := core.POp(w.join, "D3", core.PVar(1, ""), core.PVar(2, ""))
	if substAliases(q, alias) != q {
		t.Error("clean pattern copied")
	}
	if substAliases(q, nil) != q {
		t.Error("empty alias map copied")
	}
}

func TestPrepareQueryNilTree(t *testing.T) {
	rep := &Report{}
	if _, _, err := rep.PrepareQuery(nil, nil); err == nil {
		t.Error("nil tree accepted")
	}
}

func TestReportString(t *testing.T) {
	w := newSpecWorld(t)
	_, rep, err := Translate(w.rs)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{
		"cost:      cost",
		"physical:  tuple_order",
		"enforcer-operator SORT",
		"alias: JOPR => JOIN",
		"I-rule sort_merge_sort became an enforcer",
		"2 T-rules, 4 I-rules  =>  1 trans_rules, 2 impl_rules, 1 enforcers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportNoEnforcers(t *testing.T) {
	rs, err := prairielang.ParseAndCompile(`
		algebra plain;
		property cost : cost;
		operator RET(1);
		algorithm File_scan(1);
		irule fs: RET(?1:D1):D2 => File_scan(?1):D3
		preopt { D3 = D2; }
		postopt { D3.cost = 1; }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := Translate(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "no enforcer-operators") {
		t.Error("report should note absence of enforcers")
	}
	if len(rep.PhysProps) != 0 {
		t.Errorf("phys props = %v", rep.PhysProps)
	}
}

// TestGeneratedHooksOptimize drives the generated Volcano rule set
// through an actual optimization, exercising the Cond/Pre/Post hooks and
// the enforcer end to end within this package.
func TestGeneratedHooksOptimize(t *testing.T) {
	w := newSpecWorld(t)
	vrs, rep, err := Translate(w.rs)
	if err != nil {
		t.Fatal(err)
	}
	leaf := func(name string, card float64) *core.Expr {
		d := core.NewDescriptor(w.alg.Props)
		d.SetFloat(w.nr, card)
		d.Set(w.c, core.Cost(0))
		return core.NewLeaf(name, d)
	}
	retOf := func(l *core.Expr) *core.Expr {
		return core.NewNode(w.ret, l.D.Clone(), l)
	}
	jd := core.NewDescriptor(w.alg.Props)
	jd.SetFloat(w.nr, 8*4)
	join := core.NewNode(w.join, jd, retOf(leaf("R1", 8)), retOf(leaf("R2", 4)))
	// Wrap in SORT: PrepareQuery must strip it into a requirement.
	sd := jd.Clone()
	sd.Set(w.ord, core.OrderBy(core.A("R1", "a")))
	tree := core.NewNode(w.sort, sd, join)

	prepared, req, err := rep.PrepareQuery(tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prepared.Op != w.join {
		t.Fatalf("SORT not stripped: %v", prepared)
	}
	if !req.Order(w.ord).Equal(core.OrderBy(core.A("R1", "a"))) {
		t.Fatalf("requirement = %v", req.Order(w.ord))
	}
	opt := volcano.NewOptimizer(vrs)
	plan, err := opt.Optimize(prepared, req)
	if err != nil {
		t.Fatal(err)
	}
	algs := plan.Algorithms()
	found := false
	for _, a := range algs {
		if a == "Merge_sort" {
			found = true
		}
	}
	if !found {
		t.Errorf("enforcer algorithm missing from plan %s", plan)
	}
	if opt.Stats.EnfFired["sort_merge_sort"] == 0 {
		t.Error("generated enforcer never fired")
	}
	// Winner cost: scans (8+4) + nested loops (8*4 inner scans... cost
	// formula c4 + n4*c2) plus the sort; just assert it is positive and
	// the order satisfied.
	if plan.Cost(vrs.Class) <= 0 {
		t.Error("non-positive cost")
	}
	if !plan.D.Order(w.ord).Satisfies(core.OrderBy(core.A("R1", "a"))) {
		t.Errorf("order %v does not satisfy requirement", plan.D.Order(w.ord))
	}
	// A second optimization without requirement skips the enforcer.
	opt2 := volcano.NewOptimizer(vrs)
	plan2, err := opt2.Optimize(prepared.Clone(), core.NewDescriptor(w.alg.Props))
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Cost(vrs.Class) > plan.Cost(vrs.Class) {
		t.Error("unconstrained plan costs more than constrained one")
	}
}

func TestPrepareQueryInteriorEnforcerRejected(t *testing.T) {
	w := newSpecWorld(t)
	_, rep, err := Translate(w.rs)
	if err != nil {
		t.Fatal(err)
	}
	leafD := core.NewDescriptor(w.alg.Props)
	sorted := core.NewNode(w.sort, leafD.Clone(),
		core.NewNode(w.ret, leafD.Clone(), core.NewLeaf("R1", leafD.Clone())))
	jd := core.NewDescriptor(w.alg.Props)
	tree := core.NewNode(w.join, jd, sorted,
		core.NewNode(w.ret, leafD.Clone(), core.NewLeaf("R2", leafD.Clone())))
	if _, _, err := rep.PrepareQuery(tree, nil); err == nil {
		t.Error("interior enforcer-operator accepted")
	}
}
