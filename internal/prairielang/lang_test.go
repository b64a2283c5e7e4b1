package prairielang

import (
	"strings"
	"testing"

	"prairie/internal/core"
)

const miniSpec = `
// The paper's running example, in the Prairie language.
algebra relational;

property tuple_order : order;
property join_predicate : pred;
property num_records : float;
property cost : cost;

operator JOIN(2);
operator SORT(1);
operator RET(1);

algorithm Nested_loops(2) implements JOIN;
algorithm Merge_sort(1) implements SORT;
algorithm File_scan(1) implements RET;
algorithm Null(1);

helper log2(float) : float;

/* Commutativity of joins. */
trule join_commute:
  JOIN(?1:D1, ?2:D2):D3 => JOIN(?2, ?1):D4
posttest {
  D4 = D3;
}

irule join_nested_loops:
  JOIN(?1:D1, ?2:D2):D3 => Nested_loops(?1:D4, ?2):D5
test (true)
preopt {
  D5 = D3;
  D4 = D1;
  D4.tuple_order = D3.tuple_order;
}
postopt {
  D5.cost = D4.cost + D4.num_records * D2.cost;
}

irule sort_merge_sort:
  SORT(?1:D1):D2 => Merge_sort(?1):D3
test (D2.tuple_order != DONT_CARE)
preopt {
  D3 = D2;
}
postopt {
  D3.cost = D1.cost + D3.num_records * log2(D3.num_records);
}

irule sort_null:
  SORT(?1:D1):D2 => Null(?1:D3):D4
preopt {
  D4 = D2;
  D3 = D1;
  D3.tuple_order = D2.tuple_order;
}
postopt {
  D4.cost = D3.cost;
}

irule ret_file_scan:
  RET(?1:D1):D2 => File_scan(?1):D3
preopt {
  D3 = D2;
  D3.tuple_order = DONT_CARE;
}
postopt {
  D3.cost = D1.num_records;
}
`

func miniImpls() map[string]HelperImpl {
	return map[string]HelperImpl{
		"log2": func(args []core.Value) (core.Value, error) {
			n := float64(args[0].(core.Float))
			if n < 2 {
				return core.Float(1), nil
			}
			v := 0.0
			for x := n; x > 1; x /= 2 {
				v++
			}
			return core.Float(v), nil
		},
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lexAll(`JOIN(?1:D1) => { D3.cost = 1.5 + x(2); } // c
      /* block */ == != <= >= && || !`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.Kind
	}
	want := []TokKind{
		TokIdent, TokLParen, TokVar, TokColon, TokIdent, TokRParen,
		TokArrow, TokLBrace, TokIdent, TokDot, TokIdent, TokAssign,
		TokNumber, TokPlus, TokIdent, TokLParen, TokNumber, TokRParen,
		TokSemi, TokRBrace, TokEq, TokNe, TokLe, TokGe, TokAndAnd,
		TokOrOr, TokBang, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[2].Var != 1 {
		t.Errorf("var index = %d", toks[2].Var)
	}
	if toks[12].Num != 1.5 {
		t.Errorf("number = %g", toks[12].Num)
	}
}

func TestLexerStringsAndPositions(t *testing.T) {
	toks, err := lexAll("\n  \"a\\\"b\"")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokString || toks[0].Text != `a"b` {
		t.Errorf("string = %q", toks[0].Text)
	}
	if toks[0].Pos.Line != 2 || toks[0].Pos.Col != 3 {
		t.Errorf("pos = %v", toks[0].Pos)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"?x", `"unterminated`, "/* open", "&", "|", "$"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) accepted", src)
		}
	}
}

func TestParseMiniSpec(t *testing.T) {
	spec, err := Parse(miniSpec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "relational" {
		t.Errorf("algebra = %q", spec.Name)
	}
	if len(spec.Props) != 4 || len(spec.Ops) != 7 || len(spec.Helpers) != 1 {
		t.Errorf("decls = %d props, %d ops, %d helpers", len(spec.Props), len(spec.Ops), len(spec.Helpers))
	}
	if len(spec.TRules) != 1 || len(spec.IRules) != 4 {
		t.Fatalf("rules = %d T, %d I", len(spec.TRules), len(spec.IRules))
	}
	nl := spec.IRules[0]
	if nl.Name != "join_nested_loops" || nl.Test == nil || len(nl.PreOpt) != 3 || len(nl.PostOpt) != 1 {
		t.Errorf("I-rule shape: %+v", nl)
	}
	if nl.LHS.Op != "JOIN" || nl.RHS.Op != "Nested_loops" || nl.RHS.Kids[0].Desc != "D4" {
		t.Error("pattern mis-parsed")
	}
	impl := spec.Ops[3]
	if impl.Name != "Nested_loops" || impl.Implements != "JOIN" {
		t.Errorf("implements mis-parsed: %+v", impl)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus x;",
		"property p;",
		"property p : wibble;",
		"operator J();",
		"operator J(0);",
		"operator J(1.5);",
		"trule r: ?1 =>",
		"trule r JOIN(?1):D1 => ?1",
		"irule r: X(?1):D1 => Y(?1):D2 preopt { D2.cost = ; }",
		"irule r: X(?1):D1 => Y(?1):D2 preopt { D2 = }",
		"helper h( : float;",
		"algebra;",
		"trule r: J(?1:D1):D2 => J(?1):D3 test true",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestCompileMiniSpec(t *testing.T) {
	rs, err := ParseAndCompile(miniSpec, miniImpls())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Algebra.Name != "relational" {
		t.Errorf("algebra = %q", rs.Algebra.Name)
	}
	if len(rs.TRules) != 1 || len(rs.IRules) != 4 {
		t.Fatalf("compiled rules = %d T, %d I", len(rs.TRules), len(rs.IRules))
	}
	// The pre-opt write hints are exact, from the statement ASTs: one per
	// property assignment, none for a whole-descriptor copy.
	var nl *core.IRule
	for _, r := range rs.IRules {
		if r.Name == "join_nested_loops" {
			nl = r
		}
	}
	if nl == nil {
		t.Fatal("missing rule")
	}
	ord := rs.Algebra.Props.MustLookup("tuple_order")
	if len(nl.PreWrites) != 1 || nl.PreWrites[0] != (core.PropWrite{Desc: "D4", Prop: ord}) {
		t.Errorf("PreWrites = %v", nl.PreWrites)
	}
}

func TestCompiledActionsExecute(t *testing.T) {
	rs, err := ParseAndCompile(miniSpec, miniImpls())
	if err != nil {
		t.Fatal(err)
	}
	ps := rs.Algebra.Props
	ord := ps.MustLookup("tuple_order")
	nr := ps.MustLookup("num_records")
	cost := ps.MustLookup("cost")

	var nl *core.IRule
	for _, r := range rs.IRules {
		if r.Name == "join_nested_loops" {
			nl = r
		}
	}
	b := core.NewBinding(ps)
	b.D("D3").Set(ord, core.OrderBy(core.A("R", "x")))
	b.D("D3").SetFloat(nr, 128)
	if !nl.RunTest(b) {
		t.Fatal("test should be true")
	}
	nl.PreOpt(b)
	if !b.D("D5").Order(ord).Equal(core.OrderBy(core.A("R", "x"))) {
		t.Error("D5 = D3 copy failed")
	}
	if !b.D("D4").Order(ord).Equal(core.OrderBy(core.A("R", "x"))) {
		t.Error("D4.tuple_order assignment failed")
	}
	// Simulate optimized inputs and run post-opt.
	b.D("D4").Set(cost, core.Cost(10))
	b.D("D4").SetFloat(nr, 4)
	b.D("D2").Set(cost, core.Cost(7))
	nl.PostOpt(b)
	if got := b.D("D5").Float(cost); got != 10+4*7 {
		t.Errorf("cost = %g, want 38", got)
	}

	// The merge-sort test uses DONT_CARE comparison and a helper call.
	var ms *core.IRule
	for _, r := range rs.IRules {
		if r.Name == "sort_merge_sort" {
			ms = r
		}
	}
	b2 := core.NewBinding(ps)
	if ms.RunTest(b2) {
		t.Error("DONT_CARE order should fail the test")
	}
	b2.D("D2").Set(ord, core.OrderBy(core.A("R", "x")))
	if !ms.RunTest(b2) {
		t.Error("concrete order should pass the test")
	}
	ms.PreOpt(b2)
	b2.D("D3").SetFloat(nr, 8)
	b2.D("D1").Set(cost, core.Cost(5))
	ms.PostOpt(b2)
	if got := b2.D("D3").Float(cost); got != 5+8*3 {
		t.Errorf("merge sort cost = %g, want 29", got)
	}
}

func TestCheckReportsErrors(t *testing.T) {
	cases := map[string]string{
		"unknown operation": `
			algebra a; property cost : cost;
			trule r: NOPE(?1:D1):D2 => NOPE(?1):D3`,
		"unknown property": `
			algebra a; property cost : cost;
			operator J(1); algorithm A(1);
			irule r: J(?1:D1):D2 => A(?1):D3 preopt { D3.wibble = 1; }`,
		"left-hand-side descriptors are never changed": `
			algebra a; property cost : cost;
			operator J(1); algorithm A(1);
			irule r: J(?1:D1):D2 => A(?1):D3 preopt { D2.cost = 1; }`,
		"not bound": `
			algebra a; property cost : cost;
			operator J(1); algorithm A(1);
			irule r: J(?1:D1):D2 => A(?1):D3 preopt { D9.cost = 1; }`,
		"expects 1 inputs": `
			algebra a; property cost : cost;
			operator J(1); algorithm A(1);
			irule r: J(?1:D1, ?2:D9):D2 => A(?1):D3`,
		"must be boolean": `
			algebra a; property cost : cost;
			operator J(1); algorithm A(1);
			irule r: J(?1:D1):D2 => A(?1):D3 test (1 + 2)`,
		"cannot compare": `
			algebra a; property cost : cost; property o : order;
			operator J(1); algorithm A(1);
			irule r: J(?1:D1):D2 => A(?1):D3 test (D2.o == D2.cost)`,
		"cannot assign": `
			algebra a; property cost : cost; property o : order;
			operator J(1); algorithm A(1);
			irule r: J(?1:D1):D2 => A(?1):D3 preopt { D3.o = 3; }`,
		"unknown helper": `
			algebra a; property cost : cost;
			operator J(1); algorithm A(1);
			irule r: J(?1:D1):D2 => A(?1):D3 test (h(1))`,
		"declared twice": `
			algebra a; property cost : cost; property cost : cost;
			operator J(1); algorithm A(1);
			irule r: J(?1:D1):D2 => A(?1):D3`,
		"argument 1": `
			algebra a; property cost : cost; property o : order;
			operator J(1); algorithm A(1); helper h(float) : bool;
			irule r: J(?1:D1):D2 => A(?1):D3 test (h(D2.o))`,
		"expects 2 arguments": `
			algebra a; property cost : cost;
			operator J(1); algorithm A(1); helper h(float, float) : bool;
			irule r: J(?1:D1):D2 => A(?1):D3 test (h(1))`,
		"unknown operator \"NOPE\"": `
			algebra a; property cost : cost;
			operator J(1); algorithm A(1) implements NOPE;
			irule r: J(?1:D1):D2 => A(?1):D3`,
	}
	for want, src := range cases {
		errs := Check(src)
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), want) {
				found = true
			}
		}
		if !found {
			t.Errorf("Check missing %q; got %v", want, errs)
		}
	}
}

func TestCompileMissingHelperImpl(t *testing.T) {
	if _, err := ParseAndCompile(miniSpec, nil); err == nil ||
		!strings.Contains(err.Error(), "no Go implementation") {
		t.Errorf("err = %v", err)
	}
	impls := miniImpls()
	impls["extra"] = impls["log2"]
	if _, err := ParseAndCompile(miniSpec, impls); err == nil ||
		!strings.Contains(err.Error(), "undeclared helper") {
		t.Errorf("err = %v", err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	spec, err := Parse(miniSpec)
	if err != nil {
		t.Fatal(err)
	}
	src2 := Format(spec)
	spec2, err := Parse(src2)
	if err != nil {
		t.Fatalf("formatted source does not parse: %v\n%s", err, src2)
	}
	if Format(spec2) != src2 {
		t.Error("Format is not a fixed point")
	}
	if len(spec2.TRules) != len(spec.TRules) || len(spec2.IRules) != len(spec.IRules) {
		t.Error("round trip lost rules")
	}
	// The round-tripped spec compiles identically.
	rs, err := Compile(spec2, miniImpls())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.IRules) != 4 {
		t.Error("round-tripped rule set differs")
	}
}

func TestFormatExprParens(t *testing.T) {
	src := `
		algebra a; property cost : cost;
		operator J(1); algorithm A(1);
		irule r: J(?1:D1):D2 => A(?1):D3
		test ((D2.cost + 1) * 2 == 4 && !(D2.cost > 3) || false)
		preopt { D3 = D2; }
		postopt { D3.cost = -(D2.cost - 1) / 2; }`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(spec)
	spec2, err := Parse(out)
	if err != nil {
		t.Fatalf("reformatted source does not parse: %v\n%s", err, out)
	}
	if Format(spec2) != out {
		t.Errorf("not a fixed point:\n%s\nvs\n%s", out, Format(spec2))
	}
}

func TestInterpRuntimePanics(t *testing.T) {
	// Division by zero yields +Inf, not a panic.
	src := `
		algebra a; property cost : cost;
		operator J(1); algorithm A(1);
		irule r: J(?1:D1):D2 => A(?1):D3
		preopt { D3 = D2; }
		postopt { D3.cost = 1 / 0; }`
	rs, err := ParseAndCompile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBinding(rs.Algebra.Props)
	rs.IRules[0].PostOpt(b)
	if got := b.D("D3").Float(rs.Algebra.Props.MustLookup("cost")); !(got > 1e308) {
		t.Errorf("1/0 = %g", got)
	}
}

func TestArgsClause(t *testing.T) {
	src := `
		algebra a;
		property cost : cost;
		property join_predicate : pred;
		property tuple_order : order;
		operator J(2) args(join_predicate, tuple_order);
		algorithm A(2) implements J;
		irule r: J(?1:D1, ?2:D2):D3 => A(?1, ?2):D4
		preopt { D4 = D3; }
		postopt { D4.cost = 1; }`
	rs, err := ParseAndCompile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := rs.Algebra.MustOp("J")
	if len(j.Args) != 2 {
		t.Fatalf("Args = %v", j.Args)
	}
	if rs.Algebra.Props.At(j.Args[0]).Name != "join_predicate" {
		t.Errorf("first arg = %v", rs.Algebra.Props.At(j.Args[0]).Name)
	}
	// Unknown argument property is an error.
	bad := strings.Replace(src, "args(join_predicate, tuple_order)", "args(wibble)", 1)
	if _, err := ParseAndCompile(bad, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown argument property") {
		t.Errorf("err = %v", err)
	}
	// Round trip keeps the clause.
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Format(spec), "args(join_predicate, tuple_order)") {
		t.Errorf("Format lost args clause:\n%s", Format(spec))
	}
	// Malformed clause.
	if _, err := Parse("operator J(2) args(;"); err == nil {
		t.Error("malformed args accepted")
	}
}

func TestParseAndCompileAllModules(t *testing.T) {
	base := `
		algebra modular;
		property num_records : float;
		property cost : cost;
		operator R(1);
		algorithm Scan(1) implements R;
		irule r_scan:
		  R(?1:D1):D2 => Scan(?1):D3
		preopt { D3 = D2; }
		postopt { D3.cost = D1.num_records; }`
	ext := `
		algebra modular;
		operator J(2);
		algorithm Loop(2) implements J;
		irule j_loop:
		  J(?1:D1, ?2:D2):D3 => Loop(?1, ?2):D4
		preopt { D4 = D3; }
		postopt { D4.cost = D1.cost + D1.num_records * D2.cost; }`
	rs, err := ParseAndCompileAll([]string{base, ext}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.IRules) != 2 || rs.Algebra.Name != "modular" {
		t.Errorf("rules = %d, algebra = %q", len(rs.IRules), rs.Algebra.Name)
	}
	if _, ok := rs.Algebra.Op("J"); !ok {
		t.Error("extension operator missing")
	}
	// Conflicting algebra names are rejected.
	if _, err := ParseAndCompileAll([]string{base, `algebra other;`}, nil); err == nil {
		t.Error("algebra name conflict accepted")
	}
	if _, err := ParseAndCompileAll(nil, nil); err == nil {
		t.Error("empty module list accepted")
	}
	if _, err := ParseAndCompileAll([]string{"bogus"}, nil); err == nil {
		t.Error("unparseable module accepted")
	}
	// A rule name defined by two modules, and a helper declared by two.
	again := `
		irule r_scan:
		  R(?1:D1):D2 => Scan(?1):D3
		preopt { D3 = D2; }
		postopt { D3.cost = 1; }`
	if _, err := ParseAndCompileAll([]string{base, again}, nil); err == nil || !strings.Contains(err.Error(), "duplicate rule name") {
		t.Errorf("duplicate rule name across modules: err = %v", err)
	}
	withHelper := base + "\nhelper h(float) : float;"
	impl := map[string]HelperImpl{"h": func(a []core.Value) (core.Value, error) { return a[0], nil }}
	if _, err := ParseAndCompileAll([]string{withHelper, "helper h(attrs) : attrs;"}, impl); err == nil ||
		!strings.Contains(err.Error(), `module2:1:1: helper "h" declared twice`) {
		t.Errorf("helper re-declared by a module: err = %v", err)
	}
}

// TestModulePositions: every module's positions restart at 1:1, so from
// the second module on they carry the module's number — in error
// messages and in rule origins — while the first module's read as they
// do when it is compiled alone.
func TestModulePositions(t *testing.T) {
	base := `algebra m; property cost : cost;
operator R(1); algorithm S(1) implements R;
trule r_same: R(?1:D1):D2 => R(?1):D3
posttest { D3 = D2; }
irule r_s: R(?1:D1):D2 => S(?1):D3
preopt { D3 = D2; }
postopt { D3.cost = 1; }`
	ext := `trule r_again: R(?1:D1):D2 => R(?1):D3
posttest { D3 = D2; }`
	rs, err := ParseAndCompileAll([]string{base, ext}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{rs.TRules[0].Origin, rs.TRules[1].Origin}; got[0] != "spec:3:1" || got[1] != "spec:module2:1:1" {
		t.Errorf("origins = %v, want [spec:3:1 spec:module2:1:1]", got)
	}
	bad := strings.Replace(ext, "D3 = D2", "D3.wibble = 1", 1)
	_, err = ParseAndCompileAll([]string{base, bad}, nil)
	if err == nil || !strings.Contains(err.Error(), `module2:2:12: unknown property "wibble"`) {
		t.Errorf("error in module 2 = %v, want it positioned in module 2", err)
	}
	_, err = ParseAndCompileAll([]string{strings.Replace(base, "posttest { D3 = D2; }", "posttest { D3.wibble = 1; }", 1), ext}, nil)
	if err == nil || !strings.Contains(err.Error(), `4:12: unknown property "wibble"`) || strings.Contains(err.Error(), "module") {
		t.Errorf("error in module 1 = %v, want it positioned as today", err)
	}
}

// TestIRuleMustAssignCost: an I-rule whose post-opt leaves its
// algorithm's cost unassigned is a positioned specification error, from
// Check and Compile alike; a copy into the descriptor does not count.
func TestIRuleMustAssignCost(t *testing.T) {
	src := `algebra c; property cost : cost; property n : float;
operator R(1); algorithm S(1) implements R;
irule r_s: R(?1:D1):D2 => S(?1):D3
preopt { D3 = D2; }
postopt { D3 = D2; }`
	want := `3:1: rule r_s: post-opt must assign D3.cost, the cost of its algorithm`
	if errs := Check(src); len(errs) != 1 || errs[0].Error() != want {
		t.Errorf("Check = %v, want [%s]", errs, want)
	}
	if _, err := ParseAndCompile(src, nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Compile err = %v, want %s", err, want)
	}
	fixed := strings.Replace(src, "postopt { D3 = D2; }", "postopt { D3.cost = D1.n; }", 1)
	if errs := Check(fixed); len(errs) != 0 {
		t.Errorf("Check(assigned cost) = %v", errs)
	}
}

// TestInterpOperators drives every expression operator of the action
// language through a synthetic rule.
func TestInterpOperators(t *testing.T) {
	src := `
		algebra ops;
		property cost : cost;
		property num_records : float;
		property name : string;
		operator X(1);
		algorithm Y(1) implements X;
		irule r:
		  X(?1:D1):D2 => Y(?1):D3
		test ((D2.num_records >= 2 && D2.num_records <= 10) ||
		      !(D2.name < "m") || D2.name > "zz" || 1 != 2)
		preopt { D3 = D2; }
		postopt {
		  D3.cost = -(1 - 2) * (6 / 2) + (10 - 4) / 3;
		}`
	rs, err := ParseAndCompile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := rs.Algebra.Props
	r := rs.IRules[0]
	b := core.NewBinding(ps)
	b.D("D2").SetFloat(ps.MustLookup("num_records"), 5)
	b.D("D2").Set(ps.MustLookup("name"), core.Str("abc"))
	if !r.RunTest(b) {
		t.Error("test should pass")
	}
	r.PreOpt(b)
	r.PostOpt(b)
	// -(1-2)*(6/2) + (10-4)/3 = 1*3 + 2 = 5.
	if got := b.D("D3").Float(ps.MustLookup("cost")); got != 5 {
		t.Errorf("cost = %g, want 5", got)
	}

	// String ordering in both directions, plus equality short circuits.
	src2 := `
		algebra s; property cost : cost; property name : string;
		operator X(1); algorithm Y(1) implements X;
		irule r: X(?1:D1):D2 => Y(?1):D3
		test (("a" < "b") && ("b" <= "b") && ("c" > "b") && ("c" >= "c") &&
		      (D2.name == "hi") && (false || true) && !(true && false))
		preopt { D3 = D2; }
		postopt { D3.cost = 1; }`
	rs2, err := ParseAndCompile(src2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b2 := core.NewBinding(rs2.Algebra.Props)
	b2.D("D2").Set(rs2.Algebra.Props.MustLookup("name"), core.Str("hi"))
	if !rs2.IRules[0].RunTest(b2) {
		t.Error("string/boolean operator test failed")
	}
	b2.D("D2").Set(rs2.Algebra.Props.MustLookup("name"), core.Str("no"))
	if rs2.IRules[0].RunTest(b2) {
		t.Error("equality should fail")
	}
}

// TestTRulePretestAndTest covers a compiled T-rule's pre-test statements:
// its cut runs them before the test, which reads what they assign.
func TestTRulePretestAndTest(t *testing.T) {
	src := `
		algebra tr; property cost : cost; property num_records : float;
		operator J(2); algorithm A(2) implements J;
		trule split:
		  J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
		pretest { D4.num_records = D1.num_records + D2.num_records; }
		test (D4.num_records > 10)
		posttest { D4 = D3; }
		irule impl: J(?1:D1, ?2:D2):D3 => A(?1, ?2):D4
		preopt { D4 = D3; }
		postopt { D4.cost = 1; }`
	rs, err := ParseAndCompile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rs.TRules[0]
	s := r.Slice(r.RHS, declaredArgs)
	ps := rs.Algebra.Props
	nr := ps.MustLookup("num_records")
	b := core.NewBinding(ps)
	b.D("D1").SetFloat(nr, 3)
	b.D("D2").SetFloat(nr, 4)
	if s.Cond(b) {
		t.Error("7 > 10 should fail")
	}
	b2 := core.NewBinding(ps)
	b2.D("D1").SetFloat(nr, 30)
	b2.D("D2").SetFloat(nr, 4)
	if !s.Cond(b2) {
		t.Error("34 > 10 should pass")
	}
	if got := b2.D("D4").Float(nr); got != 34 {
		t.Errorf("pre-test left D4.num_records = %v, want 34", got)
	}
}

// TestCheckedSeedCompiles keeps FuzzParse's checked seed honest: it must
// reach the comparison against the interpreter, and pass it.
func TestCheckedSeedCompiles(t *testing.T) {
	if errs := Check(checkedSeed); len(errs) > 0 {
		t.Fatal(errs)
	}
	spec, err := Parse(checkedSeed)
	if err != nil {
		t.Fatal(err)
	}
	impls := map[string]HelperImpl{
		"h": func(a []core.Value) (core.Value, error) { return core.Float(float64(a[0].(core.Float)) + 3), nil },
		"g": func(a []core.Value) (core.Value, error) { return core.Bool(!a[0].IsDontCare()), nil },
	}
	rs, err := Compile(spec, impls)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Differential(t, rs, checkedSeed, impls)
	if err != nil {
		t.Fatal(err)
	}
	d.RunOnDefaults()
	// The T-rule's three cut parts and the I-rule's three sections, each
	// compared once.
	if len(d.Ran) != 6 || d.Ran["t/rest"] != 1 {
		t.Errorf("compared %v, want all six sections", d.Ran)
	}
	for section, n := range d.Ran {
		if n != 1 {
			t.Errorf("%s compared %d times, want once", section, n)
		}
	}
}

// TestTRuleLeftSideIsReadOnly: a T-rule's left side is matched against
// the memo's own descriptors (a variable leaf binds its group's shared
// representative), so a name the left side binds stays read-only; the
// right side cannot repeat it, a rule binding each name once. An
// I-rule's right-side input name that introduces a new required-property
// descriptor stays assignable.
func TestTRuleLeftSideIsReadOnly(t *testing.T) {
	const decls = `algebra a; property cost : cost; property n : float;
		operator J(2); algorithm A(2) implements J;
		irule i: J(?1:D1, ?2:D2):D3 => A(?1:D4, ?2):D5
		preopt { D5 = D3; D4 = D1; D4.n = 7; }
		postopt { D5.cost = 1; }
	`
	for _, stmt := range []string{"D1.n = 7;", "D1 = D3;"} {
		errs := Check(decls + "trule r: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4\nposttest { " + stmt + " }")
		if len(errs) != 1 || !strings.HasPrefix(errs[0].Error(), "7:12: ") ||
			!strings.Contains(errs[0].Error(), "descriptor D1 is on the rule's left side") {
			t.Errorf("%s in a T-rule: Check = %v, want one positioned left-side error", stmt, errs)
		}
	}
	if errs := Check(decls); len(errs) != 0 {
		t.Errorf("I-rule input descriptor: Check = %v, want none", errs)
	}
}
