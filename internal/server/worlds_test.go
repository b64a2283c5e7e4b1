package server

import (
	"os"
	"strings"
	"testing"

	"prairie/internal/prairielang"
	"prairie/internal/volcano"
)

// TestDSLWorldRejectsDeepTRule: a user-supplied specification whose T-rule
// left side nests three operators passes the language's checks, and is
// refused when the world is built — by rule name and with the limit —
// instead of compiling into a search that silently misses bindings.
func TestDSLWorldRejectsDeepTRule(t *testing.T) {
	src, err := os.ReadFile("../prairielang/testdata/deep_trule.prairie")
	if err != nil {
		t.Fatal(err)
	}
	if errs := prairielang.Check(string(src)); len(errs) != 0 {
		t.Fatalf("setup: the specification should pass the language's checks: %v", errs)
	}
	_, err = DSLWorld(string(src), 4)
	if err == nil {
		t.Fatal("a depth-3 trans_rule was accepted")
	}
	for _, want := range []string{"join_rotate3", "3 operators deep", "limit 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestDSLWorldNamesWhatItLacks: a specification the language accepts but
// whose algebra lacks what the dsl world's queries use is refused with
// one error naming every missing operator and property, not a panic.
func TestDSLWorldNamesWhatItLacks(t *testing.T) {
	src, err := os.ReadFile("testdata/ret_join.prairie")
	if err != nil {
		t.Fatal(err)
	}
	if errs := prairielang.Check(string(src)); len(errs) != 0 {
		t.Fatalf("setup: the specification should pass the language's checks: %v", errs)
	}
	_, err = DSLWorld(string(src), 4)
	if err == nil {
		t.Fatal("a specification without SORT or tuple_order built a dsl world")
	}
	for _, want := range []string{"operator SORT", "property tuple_order"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	for _, have := range []string{"RET", "JOIN", "num_records", "attributes", "join_predicate"} {
		if strings.Contains(err.Error(), have) {
			t.Errorf("error %q names %s, which the specification declares", err, have)
		}
	}
}

// TestDSLWorldBindsDeclaredHelpers: the dsl world binds only the helpers
// a specification declares, so a specification declaring one helper, or
// none, builds a world that serves; a declared helper without an
// implementation is the compiler's positioned error.
func TestDSLWorldBindsDeclaredHelpers(t *testing.T) {
	b, err := os.ReadFile("testdata/one_helper.prairie")
	if err != nil {
		t.Fatal(err)
	}
	oneHelper := string(b)
	noHelper := strings.Replace(oneHelper, "helper nlogn(float) : float;", "", 1)
	noHelper = strings.Replace(noHelper, "D1.cost + nlogn(D3.num_records)", "D1.cost + D3.num_records", 1)
	for name, src := range map[string]string{"one": oneHelper, "none": noHelper} {
		w, err := DSLWorld(src, 4)
		if err != nil {
			t.Fatalf("%s helper: %v", name, err)
		}
		tree, want, err := w.Build(QuerySpec{Family: "E1", N: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := volcano.NewOptimizer(w.RS).Optimize(tree, want); err != nil {
			t.Fatalf("%s helper: %v", name, err)
		}
	}
	undefined := strings.Replace(oneHelper, "helper nlogn", "helper halve(float) : float;\nhelper nlogn", 1)
	_, err = DSLWorld(undefined, 4)
	if err == nil || !strings.Contains(err.Error(), `helper "halve" has no Go implementation`) {
		t.Fatalf("a declared helper without an implementation: %v", err)
	}
}
