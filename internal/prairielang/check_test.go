package prairielang_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/oodb"
	"prairie/internal/prairielang"
	"prairie/internal/relopt"
)

// rejectBase is a valid specification; each row of TestCheckRejects adds
// one declaration or rule to it, from line 8 on, or edits it.
const rejectBase = `algebra t;
property cost : cost; property n : float;
operator R(1); operator J(2); operator S(1);
algorithm Scan(1) implements R; algorithm Loop(2) implements J; algorithm Sort(1) implements S; algorithm Null(1);
irule r_scan: R(?1:D1):D2 => Scan(?1):D3 preopt { D3 = D2; } postopt { D3.cost = D1.n; }
irule j_loop: J(?1:D1, ?2:D2):D3 => Loop(?1, ?2):D4 preopt { D4 = D3; } postopt { D4.cost = D1.cost + D2.cost; }
irule s_sort: S(?1:D1):D2 => Sort(?1):D3 preopt { D3 = D2; } postopt { D3.cost = D1.cost; }
`

// TestCheckRejects holds one row per rule and declaration check: the
// checker is the one gate a specification passes, so Check and Compile
// reject each row with the same single error at the same position.
func TestCheckRejects(t *testing.T) {
	const post = ` preopt { D4 = D3; } postopt { D4.cost = 1; }`
	for _, c := range []struct{ name, spec, want string }{
		{"rule names are unique",
			rejectBase + "irule r_scan: R(?1:D1):D2 => Scan(?1):D3 preopt { D3 = D2; } postopt { D3.cost = 1; }",
			"8:1: rule r_scan: duplicate rule name"},
		{"a T-rule relates operators only",
			rejectBase + "trule t: J(?1:D1, ?2:D2):D3 => Loop(?1, ?2):D4 posttest { D4 = D3; }",
			"8:32: rule t: T-rule mentions algorithm Loop; T-rule sides involve only abstract operators"},
		{"a T-rule left side is no bare variable",
			rejectBase + "trule t: ?1:D1 => R(?1):D2 posttest { D2 = D1; }",
			"8:10: rule t: left side must be an operator expression"},
		{"I-rule sides are operations",
			rejectBase + "irule i: ?1:D3 => Sort(?1):D4" + post,
			"8:10: rule i: I-rule sides must be operation expressions"},
		{"an I-rule left side is an operator",
			rejectBase + "irule i: Scan(?1:D1):D3 => Sort(?1):D4" + post,
			"8:10: rule i: I-rule left side Scan is not an abstract operator"},
		{"an I-rule left side is one operator over inputs",
			rejectBase + "irule i: S(R(?1:D1):D2):D3 => Sort(?1):D4" + post,
			"8:10: rule i: I-rule left side must be a single operator over inputs"},
		{"an I-rule right side is an algorithm",
			rejectBase + "irule i: S(?1:D1):D3 => R(?1):D4" + post,
			"8:25: rule i: I-rule right side R is not an algorithm"},
		{"an I-rule right side is one algorithm over inputs",
			rejectBase + "irule i: S(?1:D1):D3 => Sort(Sort(?1):D2):D4" + post,
			"8:25: rule i: I-rule right side must be a single algorithm over inputs"},
		{"an algorithm has the arity of its operator",
			rejectBase + "irule i: S(?1:D1):D3 => Loop(?1, ?1):D4" + post,
			"8:25: rule i: algorithm Loop arity 2 != operator S arity 1"},
		{"a Null rule implements a single-input operator",
			rejectBase + "irule i: J(?1:D1, ?2:D2):D3 => Null(?1:D5):D4" + post,
			"8:32: rule i: Null rules require a single-input operator (got arity 2)"},
		{"a Null rule input has a fresh descriptor",
			rejectBase + "irule i: S(?1:D1):D3 => Null(?1):D4" + post,
			"8:25: rule i: Null rule input needs a fresh descriptor to propagate properties (§2.5)"},
		{"variables are positive",
			rejectBase + "trule t: R(?0:D1):D2 => R(?0):D3 posttest { D3 = D2; }",
			"8:12: rule t: variable ?0 must be positive"},
		{"left-side variables are distinct",
			rejectBase + "trule t: J(?1:D1, ?1:D2):D3 => J(?1, ?1):D4 posttest { D4 = D3; }",
			"8:19: rule t: variable ?1 repeated on left side"},
		{"right-side variables are bound",
			rejectBase + "trule t: R(?1:D1):D2 => R(?7):D3 posttest { D3 = D2; }",
			"8:27: rule t: variable ?7 on right side is unbound"},
		{"a descriptor name is bound once",
			rejectBase + "trule t: J(?1:D1, ?2:D1):D3 => J(?2, ?1):D4 posttest { D4 = D3; }",
			"8:19: rule t: descriptor D1 bound more than once"},
		{"the left root is named",
			rejectBase + "trule t: R(?1:D1) => R(?1):D3 posttest { D3.n = D1.n; }",
			"8:10: rule t: left-side root needs a descriptor name"},
		{"the right root is named",
			rejectBase + "trule t: R(?1:D1):D2 => R(?1)",
			"8:25: rule t: right-side root needs a descriptor name"},
		{"every operator is implementable",
			rejectBase + "operator U(1);",
			"8:1: operator U has no I-rule and no T-rule rewriting it to an implementable operator"},
		{"an operator of a spec without rules is implementable",
			"algebra bad; property cost : cost; operator RET(1);",
			"1:36: operator RET has no I-rule and no T-rule rewriting it to an implementable operator"},
		{"a spec of properties only has a cost property",
			"algebra nocost; property num_records : float;",
			"1:1: the specification declares no cost property"},
		{"there is a cost property",
			strings.Replace(rejectBase, "property cost : cost;", "property cost : float;", 1),
			"1:1: the specification declares no cost property"},
		{"there is one cost property",
			rejectBase + "property c2 : cost;",
			`8:1: property "c2" is a second cost property; a specification declares exactly one`},
		{"a T-rule's right side does not contain its left",
			rejectBase + "trule t: S(?1:D1):D2 => S(S(?1):D3):D4 posttest { D3 = D2; D4 = D2; }",
			"8:1: rule t: the right side contains the whole left side, so the group the rule rewrites would become its own input"},
		{"only a T-rule normalizes",
			rejectBase + "trule t: S(?1:D1):D2 => S(?1):D3 posttest { D3 = D2; }\nnormalize t, r_scan;",
			"9:14: normalize: r_scan is not a T-rule of the specification"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if errs := prairielang.Check(c.spec); len(errs) != 1 || errs[0].Error() != c.want {
				t.Errorf("Check = %v, want [%s]", errs, c.want)
			}
			if _, err := prairielang.ParseAndCompile(c.spec, nil); err == nil || err.Error() != c.want {
				t.Errorf("Compile error = %v, want %s", err, c.want)
			}
		})
	}
	if errs := prairielang.Check(rejectBase); len(errs) != 0 {
		t.Errorf("Check(base) = %v", errs)
	}
}

// TestReadBeforeAssignment: a T-rule's statements run pre-test, test,
// post-test, and a read of a right-side property no earlier statement
// assigned — by itself or by copying the whole descriptor — would see the
// property's default; the checker rejects it where it stands. Left-side
// descriptors are the matched expression's, and exempt.
func TestReadBeforeAssignment(t *testing.T) {
	const head = "trule t: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4 "
	for body, want := range map[string]string{
		"test (D4.n > 1) posttest { D4 = D3; }":         "8:51: rule t: D4.n is read before any statement assigns it",
		"posttest { D4.n = D4.cost + 1; D4 = D3; }":     "8:63: rule t: D4.cost is read before any statement assigns it",
		"posttest { D4.n = 1; D4.cost = D4.cost; }":     "8:76: rule t: D4.cost is read before any statement assigns it",
		"posttest { D4 = D4; }":                         "8:56: rule t: D4 is copied before a statement assigns all of it",
		"pretest { D4.n = D1.n; } test (D4.n > D3.n)":   "",
		"posttest { D4 = D3; D4.n = D4.n + D2.n; }":     "",
		"posttest { D4.n = 1; D4.cost = D4.n * D1.n; }": "",
	} {
		errs := prairielang.Check(rejectBase + head + body)
		if got := fmt.Sprint(errs); want == "" && len(errs) != 0 || want != "" && got != "["+want+"]" {
			t.Errorf("%s: Check = %v, want [%s]", body, errs, want)
		}
	}
}

// TestShippedSpecsCheck: every specification the repository ships passes
// the checker — the OODB and relational ones, the latter with its
// hash-join module, and the rule-language example.
func TestShippedSpecsCheck(t *testing.T) {
	example, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"oodb": oodb.Spec, "relopt": relopt.Spec, "dslrules": string(example)} {
		if errs := prairielang.Check(src); len(errs) != 0 {
			t.Errorf("%s: Check = %v", name, errs)
		}
	}
	o := relopt.New(catalog.New())
	if _, err := prairielang.ParseAndCompileAll([]string{relopt.Spec, relopt.HashJoinSpec}, o.HelperImpls()); err != nil {
		t.Errorf("relopt with hash join: %v", err)
	}
}

// TestSelfEmbeddingTRuleRejected: the rule-language example with
// join_commute's right side replaced by JOIN(JOIN(?1, ?2), ?2) used to
// pass the checker and fail the search with "cyclic optimization of
// group 4", naming no rule. The checker now rejects it at the rule.
func TestSelfEmbeddingTRuleRejected(t *testing.T) {
	src, err := os.ReadFile("testdata/self_embedding_trule.prairie")
	if err != nil {
		t.Fatal(err)
	}
	const want = "30:1: rule join_commute: the right side contains the whole left side, so the group the rule rewrites would become its own input"
	if errs := prairielang.Check(string(src)); len(errs) != 1 || errs[0].Error() != want {
		t.Errorf("Check = %v, want [%s]", errs, want)
	}
}
