package server

import (
	"os"
	"strings"
	"testing"

	"prairie/internal/prairielang"
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
	_, err = DSLWorld(string(src), nil, 4)
	if err == nil {
		t.Fatal("a depth-3 trans_rule was accepted")
	}
	for _, want := range []string{"join_rotate3", "3 operators deep", "limit 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
