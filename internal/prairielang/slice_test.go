package prairielang

import (
	"strings"
	"testing"

	"prairie/internal/core"
)

// sliceDecls declares what the slicer tests' rules range over: J's
// identity is its property p, U declares none.
const sliceDecls = `algebra a;
property cost : cost; property p : float; property x : float; property y : float;
operator J(2) args(p); operator U(1);
algorithm A(2) implements J; algorithm B(1) implements U;
helper h(float) : float;
irule i: J(?1:D1, ?2:D2):D3 => A(?1, ?2):D4 preopt { D4 = D3; } postopt { D4.cost = 1; }
irule u: U(?1:D1):D2 => B(?1):D3 preopt { D3 = D2; } postopt { D3.cost = 1; }
`

// sliceImpls implements sliceDecls' helper.
var sliceImpls = map[string]HelperImpl{
	"h": func(a []core.Value) (core.Value, error) { return a[0].(core.Float) + 1, nil },
}

// cutOf compiles sliceDecls plus one T-rule and cuts the rule for its own
// right side, the declared args(...) standing for the identity
// properties; it also returns the rule as compiled and as declared.
func cutOf(t *testing.T, trule string) (cut, *core.TRule, *TRuleDecl, *core.PropertySet) {
	t.Helper()
	spec, err := Parse(sliceDecls + trule)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Compile(spec, sliceImpls)
	if err != nil {
		t.Fatal(err)
	}
	r, d := rs.TRules[0], spec.TRules[0]
	return cutTRule(d, r.RHS, declaredArgs, r.Frame.Names), r, d, rs.Algebra.Props
}

func declaredArgs(op *core.Operation) []core.PropID { return op.Args }

func stmtsText(stmts []*Stmt) string {
	var out []string
	for _, st := range stmts {
		out = append(out, formatStmt(st))
	}
	return strings.Join(out, " ")
}

// TestSliceParts pins where each statement of a rule lands: before the
// test every pre-test statement, as written; of the post-test statements,
// in the identity part the writes of args(...) properties, the
// whole-descriptor copies into right-side nodes and what those read; in
// the deferred part the rest, each part in source order.
func TestSliceParts(t *testing.T) {
	for _, c := range []struct {
		name, rule             string
		test, ident, rest, why string
	}{
		{
			name: "write after write across the cut: a deferred assignment would land on top of the copy",
			rule: `trule r: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
				posttest { D4.x = 1; D4 = D3; D4.y = h(D3.y); D4.p = D3.p + 1; D4.x = D3.x * 2; }`,
			why: `"D4.x = 1;" assigns what the later "D4 = D3;" assigns`,
		},
		{
			name: "a copy stays ahead of the assignments that override it",
			rule: `trule r: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
				posttest { D4 = D3; D4.y = h(D3.y); D4.p = D3.p + 1; D4.x = D3.x * 2; }`,
			ident: "D4 = D3; D4.p = D3.p + 1;",
			rest:  "D4.y = h(D3.y); D4.x = D3.x * 2;",
		},
		{
			name: "what the test reads stays, directly or through a pre-test statement, and so does what it does not read",
			rule: `trule r: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
				pretest { D4.x = h(D1.x); D4.y = D4.x + 1; D4.cost = h(D2.x); }
				test (D4.y > 0)
				posttest { D4.p = D3.p; }`,
			test:  "D4.x = h(D1.x); D4.y = D4.x + 1; D4.cost = h(D2.x);",
			ident: "D4.p = D3.p;",
			why:   "every post-test statement decides an identity property",
		},
		{
			name: "a cut keeps every pre-test statement before the test",
			rule: `trule r: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
				pretest { D4.x = h(D1.x); D4.y = h(D2.y); }
				test (D3.x > 0)
				posttest { D4.p = D4.x + 1; D4.cost = D4.y; }`,
			test:  "D4.x = h(D1.x); D4.y = h(D2.y);",
			ident: "D4.p = D4.x + 1;",
			rest:  "D4.cost = D4.y;",
		},
		{
			name: "read after write, two statements deep: both writers join the identity part",
			rule: `trule r: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
				posttest { D4.x = h(D3.x); D4.cost = 3; D4.y = D4.x + 1; D4.p = D4.y; }`,
			ident: "D4.x = h(D3.x); D4.y = D4.x + 1; D4.p = D4.y;",
			rest:  "D4.cost = 3;",
		},
		{
			name: "write after read across the cut",
			rule: `trule r: J(J(?1:D1, ?2:D2):D3, ?3:D4):D5 => J(?1, J(?2, ?3):D6):D7
				posttest { D7.p = D5.p; D6.x = D7.p; D7.p = D5.p + 1; }`,
			why: `"D6.x = D7.p;" reads what the later "D7.p = D5.p + 1;" assigns`,
		},
		{
			name: "write after read through a whole-descriptor copy",
			rule: `trule r: J(J(?1:D1, ?2:D2):D3, ?3:D4):D5 => J(?1, J(?2, ?3):D6):D7
				posttest { D6 = D4; D7.x = D6.x; D6 = D3; }`,
			why: `"D7.x = D6.x;" reads what the later "D6 = D3;" assigns`,
		},
		{
			name: "nothing sinks, nothing is deferred: reported whole",
			rule: `trule r: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
				pretest { D4 = D3; D4.x = h(D1.x); }
				test (D4.x > 0)
				posttest { D4.p = D3.p; }`,
			test:  "D4 = D3; D4.x = h(D1.x);",
			ident: "D4.p = D3.p;",
			why:   "every post-test statement decides an identity property",
		},
		{
			// Pre-test statements never move, so their order is no hazard.
			name: "write after write across the test",
			rule: `trule r: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
				pretest { D4.y = 1; D4 = D3; }
				test (D4.x > 0)
				posttest { D4.p = D3.p; }`,
			test:  "D4.y = 1; D4 = D3;",
			ident: "D4.p = D3.p;",
			why:   "every post-test statement decides an identity property",
		},
		{
			name: "a right-side operator without args(...) is identified by every property",
			rule: `trule r: U(U(?1:D1):D2):D3 => U(?1):D4
				posttest { D4 = D3; D4.x = h(D2.x); }`,
			why: "U declares no args(...): every property identifies it",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, r, _, _ := cutOf(t, c.rule)
			if c.why != "" {
				// Left as written, and said why.
				d := r.Slice(r.RHS, declaredArgs)
				if got.whole != c.why || d.Rest != nil || len(d.Doc) != 1 || d.Doc[0] != "whole: "+c.why {
					t.Errorf("whole = %q, Rest set %v, doc %q; want whole because %s", got.whole, d.Rest != nil, d.Doc, c.why)
				}
				if c.test == "" && c.ident == "" {
					return
				}
			}
			if stmtsText(got.test) != c.test || stmtsText(got.ident) != c.ident || stmtsText(got.rest) != c.rest {
				t.Errorf("cut\n  test  %s\n  ident %s\n  rest  %s\nwant\n  test  %s\n  ident %s\n  rest  %s",
					stmtsText(got.test), stmtsText(got.ident), stmtsText(got.rest), c.test, c.ident, c.rest)
			}
		})
	}
}

// TestSlicedRuleRuns fires a sliced rule part by part: Cond runs the
// pre-test statement the test does not read; after Appl the identity
// property is final and the copy has happened, the deferred assignments
// have not; Rest completes the descriptors to what the rule as written
// produces in the interpreter, the override landing on top of the copy.
func TestSlicedRuleRuns(t *testing.T) {
	_, r, decl, ps := cutOf(t, `trule r: J(J(?1:D1, ?2:D2):D3, ?3:D4):D5 => J(?1, J(?2, ?3):D6):D7
		pretest { D6.y = h(D1.x); }
		test (D5.x > 0)
		posttest { D7 = D5; D7.x = h(D5.x); D7.p = D5.p + 1; }`)
	x, y, p := ps.MustLookup("x"), ps.MustLookup("y"), ps.MustLookup("p")
	lhs := func() *core.Binding {
		b := core.NewBinding(ps)
		b.D("D5").SetFloat(x, 5)
		b.D("D5").SetFloat(p, 7)
		for _, name := range []string{"D1", "D2", "D3", "D4"} {
			b.D(name)
		}
		return b
	}
	s := r.Slice(r.RHS, declaredArgs)
	if got := strings.Join(s.Doc, "\n"); got != "test      D6.y = h(D1.x);\nidentity  D7 = D5;\n"+
		"identity  D7.p = D5.p + 1;\ndeferred  D7.x = h(D5.x);" {
		t.Errorf("doc:\n%s", got)
	}
	b := lhs()
	if !s.Cond(b) || !b.Bound("D6") || b.D("D6").Float(y) != 1 {
		t.Fatalf("Cond rejected, or left the pre-test statement unrun (D6 bound: %v)", b.Bound("D6"))
	}
	s.Appl(b)
	if d := b.D("D7"); d.Float(p) != 8 || d.Float(x) != 5 {
		t.Errorf("after Appl D7 = %v, want p=8 final and x=5 copied", d)
	}
	s.Rest(b)
	whole := lhs()
	if !RunWhole(decl, sliceImpls, whole) {
		t.Fatal("rule as written rejected")
	}
	for _, name := range []string{"D6", "D7"} {
		if diff := descDiff(b.D(name), whole.D(name)); diff != "" {
			t.Errorf("after Rest %s = %v, as written %v: %s", name, b.D(name), whole.D(name), diff)
		}
	}
	if b.D("D7").Float(x) != 6 || b.D("D6").Float(y) != 1 {
		t.Errorf("after Rest D7.x = %v, D6.y = %v, want 6 and 1", b.D("D7").Float(x), b.D("D6").Float(y))
	}
}
