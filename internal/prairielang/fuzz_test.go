package prairielang

import (
	"errors"
	"os"
	"testing"

	"prairie/internal/core"
)

const checkedSeed = `algebra a;
property cost : cost; property n : float; property o : order;
property s : string; property k : bool; property e : bool; property i : int;
operator J(1) args(s); algorithm A(1) implements J;
helper h(float) : float; helper g(order) : bool;
trule t: J(J(?1:D1):D2):D3 => J(J(?1):D5):D4
pretest { D4.n = h(D3.n) / 0; }
test (!(D3.n > 2) || h(D3.n) == D3.i && D3.s < "x" || D3.o != DONT_CARE && g(D3.o))
posttest { D5 = D3; D4.n = -h(D3.n) * 2 - D2.n; D4.k = D3.n <= D2.n; D4.e = h(D3.n) == D3.i + 3; D4.s = "q"; }
irule i: J(?1:D1):D2 => A(?1:D3):D4
test (D2.k == true && D2.s >= D2.s)
preopt { D4 = D2; D3 = D1; D3.o = DONT_CARE; }
postopt { D4.cost = D3.cost + h(D4.n) * 1.5; }
`

// FuzzParse drives the whole front end — lexer, parser, formatter,
// checker, compiler — with arbitrary input. The invariants: Parse never
// panics; for any input it accepts, Format produces source that reparses
// and formats to a fixed point (format ∘ parse is idempotent); Check and
// Compile (helpers stubbed to their result kind's default) agree — Check
// reports exactly the errors Compile fails with, and a specification
// Check accepts compiles; and every rule's compiled actions — a T-rule's
// cut — agree with the interpreter on a binding of empty descriptors. Seeds cover every declaration form plus the
// shipped example specification and one the compiler used to reject
// after Check had accepted it.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"algebra a;",
		"// comment only\n",
		"algebra a;\nproperty cost : cost;\nproperty o : order;\n",
		"algebra a;\noperator RET(1);\noperator JOIN(2) args(jp);\n",
		"algebra a;\nalgorithm File_scan(1) implements RET;\nalgorithm Null(1);\n",
		"algebra a;\nhelper nlogn(float) : float;\nhelper ow(order, attrs) : bool;\n",
		"algebra a;\ntrule c:\n  JOIN(?1:D1, ?2:D2):D3 => JOIN(?2, ?1):D4\nposttest {\n  D4 = D3;\n}\n",
		"algebra a;\nirule fs:\n  RET(?1:D1):D2 => File_scan(?1):D3\npretest {\n  D3 = D2;\n}\nposttest {\n  D3.cost = 1.5;\n}\n",
		"algebra a;\ntrule g:\n  SEL(?1:D1):D2 => SEL(?1):D3\nposttest {\n  D3.f = D2.f + 2 * nlogn(D1.n) - 1;\n  D3.b = !D2.b && (D2.n <= 3 || D2.n > 7);\n}\n",
	}
	// One seed that passes Check, so the compiled-versus-interpreted
	// comparison starts from every expression form.
	seeds = append(seeds, checkedSeed)
	for _, file := range []string{"../../examples/dslrules/rules.prairie", "testdata/check_agrees.prairie"} {
		if src, err := os.ReadFile(file); err == nil {
			seeds = append(seeds, string(src))
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		out := Format(spec)
		spec2, err := Parse(out)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\n--- formatted\n%s", err, out)
		}
		if out2 := Format(spec2); out2 != out {
			t.Fatalf("format is not a fixed point\n--- first\n%s\n--- second\n%s", out, out2)
		}
		errs := Check(src)
		impls := map[string]HelperImpl{}
		for _, h := range spec.Helpers {
			v := core.DefaultValue(h.Result)
			impls[h.Name] = func([]core.Value) (core.Value, error) { return v, nil }
		}
		rs, err := Compile(spec, impls)
		if len(errs) > 0 {
			if err == nil || err.Error() != errors.Join(errs...).Error() {
				t.Fatalf("Check reports\n%v\nbut Compile fails with\n%v", errors.Join(errs...), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("passes Check, but does not compile: %v", err)
		}
		d, err := Differential(t, rs, src, impls)
		if err != nil {
			t.Fatalf("compiles, but the interpreter's compilation fails: %v", err)
		}
		d.RunOnDefaults()
	})
}
