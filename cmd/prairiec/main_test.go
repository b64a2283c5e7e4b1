package main

import (
	"strings"
	"testing"

	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
)

// dump compiles and translates src with stub helpers and returns what
// -dump prints for it.
func dump(t *testing.T, src string) string {
	t.Helper()
	spec, err := prairielang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := prairielang.Compile(spec, stubHelpers(spec))
	if err != nil {
		t.Fatal(err)
	}
	vrs, rep, err := p2v.Translate(rs)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	dumpRules(&out, rs, vrs, rep)
	return out.String()
}

// TestDumpShowsFrameAndCut pins what -dump tells a specification's
// author about one firing: the OODB specification's join_assoc works in
// a seven-slot frame (left side in pattern order, then the two new
// nodes) and is cut so that the new inner join's attribute union,
// cardinality and width run only for a firing the memo keeps. A rule with nothing to move says so. A deferred
// statement that assigns the root is followed by the property the root
// inherits from its group when it is the firing's only new node. Twelve
// rules keep left-side identities on every right-side node, join_commute
// its root's; join_assoc, which computes both new join predicates, keeps
// none. The MAT push rules say they normalize the query, join_commute
// that it is an involution, and no other rule either.
func TestDumpShowsFrameAndCut(t *testing.T) {
	out := dump(t, oodb.Spec)
	for _, want := range []string{
		"  trans_rule join_assoc: JOIN(JOIN(?1:D1, ?2:D2):D3, ?3:D4):D5 -> JOIN(?1, JOIN(?2, ?3):D6):D7\n" +
			"      frame [D5 D3 D1 D2 D4 D7 D6]\n" +
			"      identity  D6.join_predicate = split_within(D3.join_predicate, D5.join_predicate, D2.attributes, D4.attributes);\n" +
			"      identity  D7 = D5;\n" +
			"      identity  D7.join_predicate = split_rest(D3.join_predicate, D5.join_predicate, D2.attributes, D4.attributes);\n" +
			"      deferred  D6.attributes = union(D2.attributes, D4.attributes);\n" +
			"      deferred  D6.num_records = join_card(D2.num_records, D4.num_records, D6.join_predicate);\n" +
			"      deferred  D6.tuple_size = D2.tuple_size + D4.tuple_size;\n" +
			"  trans_rule select_push_join_left: ",
		"      frame [D4 D3 D1 D2 D6 D5]\n      identity  D5 = D4;\n      identity  D6 = D3;\n      deferred  D5.attributes = ",
		"  trans_rule select_merge: SELECT(SELECT(?1:D1):D2):D3 -> SELECT(?1):D4\n      frame [D3 D2 D1 D4]\n" +
			"      whole: every post-test statement decides an identity property\n",
		"  impl_rule  select_filter: SELECT -> Filter\n      frame [D2 D1 D4 D3]\n",
		"  enforcer sort_merge_sort (Merge_sort)\n      frame [D2 D1 D3]\n",
		"      deferred  D6.num_records = D4.num_records;\n      inherited D6.num_records\n" +
			"      keeps: D6 <- D3, D5 <- D4\n  trans_rule select_push_join_right: ",
		"  trans_rule join_commute: JOIN(?1:D1, ?2:D2):D3 -> JOIN(?2, ?1):D4\n      frame [D3 D1 D2 D4]\n" +
			"      whole: every post-test statement decides an identity property\n" +
			"      keeps: D4 <- D3\n" +
			"      involution: its own inverse, never fired on an expression it built\n",
		"      inherited D6.tuple_size\n      keeps: D6 <- D3, D5 <- D4\n" +
			"      normalize: rewrites the query before the search, which never explores it\n" +
			"  trans_rule mat_push_join_right: ",
		"  trans_rule select_push_mat: SELECT(MAT(?1:D1):D2):D3 -> MAT(SELECT(?1):D4):D5\n",
		"      inherited D5.num_records\n      keeps: D5 <- D2, D4 <- D3\n  trans_rule mat_pull_select: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-dump output lacks\n%s--- got\n%s", want, out)
		}
	}
	if strings.Count(out, "\n      normalize: ") != 2 || strings.Count(out, "\n      involution: ") != 1 {
		t.Errorf("-dump marks %d rules normalizing and %d involutions, want 2 and 1", strings.Count(out, "\n      normalize: "), strings.Count(out, "\n      involution: "))
	}
	if n := strings.Count(out, "\n      deferred  "); n != 44 || strings.Count(out, "\n      whole: ") != 2 {
		t.Errorf("-dump lists %d deferred statements and %d whole rules, want 44 in 15 rules and 2\n%s", n, strings.Count(out, "\n      whole: "), out)
	}
	if n := strings.Count(out, "\n      keeps: "); n != 12 || strings.Count(out, "\n      keeps: D4 <- D3\n") != 1 {
		t.Errorf("-dump lists %d rules keeping left-side identities, want 12, one of them join_commute's one node", n)
	}
}

// TestDumpSaysWhyARuleStaysWhole: a statement that could not move without
// changing what another computes, or a right-side operator every property
// identifies, keeps a rule as written, and -dump names the reason.
func TestDumpSaysWhyARuleStaysWhole(t *testing.T) {
	out := dump(t, `algebra a;
		property cost : cost; property p : float; property x : float;
		operator J(2) args(p); operator U(1);
		algorithm A(2) implements J; algorithm B(1) implements U;
		trule hazard: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
		posttest { D4.x = D3.x + 1; D4 = D3; }
		trule bare: U(U(?1:D1):D2):D3 => U(?1):D4
		posttest { D4 = D3; D4.x = D2.x; }
		irule i: J(?1:D1, ?2:D2):D3 => A(?1, ?2):D4 preopt { D4 = D3; } postopt { D4.cost = 1; }
		irule u: U(?1:D1):D2 => B(?1):D3 preopt { D3 = D2; } postopt { D3.cost = 1; }`)
	for _, want := range []string{
		"      whole: \"D4.x = D3.x + 1;\" assigns what the later \"D4 = D3;\" assigns\n",
		"      whole: U declares no args(...): every property identifies it\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-dump output lacks\n%s--- got\n%s", want, out)
		}
	}
}

// TestCheckRunsEveryCompileCheck: -check runs exactly the checks a
// compile runs, so a specification the compiler rejects fails -check too,
// with every error at its position; one it accepts passes.
func TestCheckRunsEveryCompileCheck(t *testing.T) {
	const file = "../../internal/prairielang/testdata/check_agrees.prairie"
	var out, errb strings.Builder
	code := run([]string{"-check", file}, &out, &errb)
	want := file + ": 13:1: rule swap: duplicate rule name\n" +
		file + ": 13:41: rule swap: variable ?7 on right side is unbound\n" +
		file + ": 8:1: operator U has no I-rule and no T-rule rewriting it to an implementable operator\n"
	if code != 1 || out.String() != "" || errb.String() != want {
		t.Errorf("-check: status %d, stdout %q, stderr\n%s--- want status 1, stderr\n%s", code, out.String(), errb.String(), want)
	}
	const ok = "../../examples/dslrules/rules.prairie"
	out.Reset()
	errb.Reset()
	if code := run([]string{"-check", ok}, &out, &errb); code != 0 || out.String() != ok+": specification OK\n" || errb.String() != "" {
		t.Errorf("-check %s: status %d, stdout %q, stderr %q", ok, code, out.String(), errb.String())
	}
}
