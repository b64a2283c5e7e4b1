package p2v_test

import (
	"slices"
	"testing"

	"prairie/internal/core"
	"prairie/internal/oodb"
	"prairie/internal/p2v"
	"prairie/internal/prairielang"
	"prairie/internal/qgen"
)

// keepsOf translates a compiled rule set and returns each trans_rule's
// derived Keeps by name.
func keepsOf(t *testing.T, rs *core.RuleSet) map[string][]core.Keep {
	t.Helper()
	vrs, _, err := p2v.Translate(rs)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]core.Keep{}
	for _, r := range vrs.Trans {
		out[r.Name] = r.Keeps
	}
	return out
}

// TestKeepsDerivedForOODB: of the Open OODB specification's rules,
// join_assoc, select_merge and select_split compute an identity property
// of every node they build and keep none; select_push_mat's new SELECT
// takes the old one's predicate after a copy of the MAT's input (D4 <-
// D3) and its new MAT is a copy of the old one (D5 <- D2).
func TestKeepsDerivedForOODB(t *testing.T) {
	keeps := keepsOf(t, oodb.New(qgen.Catalog(2, 101, false)).PrairieRules())
	for _, name := range []string{"join_assoc", "select_merge", "select_split"} {
		if k, ok := keeps[name]; !ok || k != nil {
			t.Errorf("%s derives keeps %v (rule present %v), want none", name, k, ok)
		}
	}
	if k := keeps["select_push_mat"]; !slices.Equal(k, []core.Keep{{RHS: "D5", LHS: "D2"}, {RHS: "D4", LHS: "D3"}}) {
		t.Errorf("select_push_mat derives keeps %v, want D5 <- D2, D4 <- D3", k)
	}
}

// TestKeepsDerivation pins what a right-side node keeps: the identity
// properties the statements leave it holding — every one a copy of the
// same left-side node's same property, whole or member by member, none
// computed or taken from another property or node — when that node is
// an operator node of its own operator.
func TestKeepsDerivation(t *testing.T) {
	rs, err := prairielang.ParseAndCompile(`algebra k;
property p : float; property q : float; property x : float; property cost : cost;
operator J(2) args(p, q);
operator S(1) args(p);
algorithm A(2) implements J; algorithm B(1) implements S;
irule j: J(?1:D1, ?2:D2):D3 => A(?1, ?2):D4 preopt { D4 = D3; } postopt { D4.cost = 1; }
irule s: S(?1:D1):D2 => B(?1):D3 preopt { D3 = D2; } postopt { D3.cost = 1; }
trule copy_then_other: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
posttest { D4 = D3; D4.x = D3.x + 1; }
trule copy_then_computed: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
posttest { D4 = D3; D4.p = D3.p + 1; }
trule members: J(?1:D1, ?2:D2):D3 => J(?2, ?1):D4
posttest { D4.q = D3.q; D4.p = D3.p; }
trule two_sources: J(J(?1:D1, ?2:D2):D3, ?3:D4):D5 => J(?1, J(?2, ?3):D6):D7
posttest { D6 = D3; D7 = D5; D6.q = D5.q; }
trule other_property: S(S(?1:D1):D2):D3 => S(S(?1):D4):D5
posttest { D4 = D2; D5.p = D3.x; }
trule from_input: S(J(?1:D1, ?2:D2):D3):D4 => J(S(?1):D5, ?2):D6
posttest { D5 = D1; D6 = D3; }
trule across_operators: S(J(?1:D1, ?2:D2):D3):D4 => J(S(?1):D5, ?2):D6
posttest { D6 = D4; D5 = D3; }
trule swap_members: S(S(?1:D1):D2):D3 => S(S(?1):D4):D5
posttest { D4 = D1; D4.p = D3.p; D5.p = D2.p; }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	keeps := keepsOf(t, rs)
	for name, want := range map[string][]core.Keep{
		"copy_then_other":    {{RHS: "D4", LHS: "D3"}},
		"copy_then_computed": nil,
		"members":            {{RHS: "D4", LHS: "D3"}},
		"two_sources":        {{RHS: "D7", LHS: "D5"}},
		"other_property":     {{RHS: "D4", LHS: "D2"}},
		"from_input":         {{RHS: "D6", LHS: "D3"}},
		"across_operators":   nil,
		"swap_members":       {{RHS: "D5", LHS: "D2"}, {RHS: "D4", LHS: "D3"}},
	} {
		if got, ok := keeps[name]; !ok || !slices.Equal(got, want) {
			t.Errorf("%s derives keeps %v, want %v", name, got, want)
		}
	}
}
