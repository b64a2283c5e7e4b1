package wire_test

import (
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"prairie/internal/core"
	"prairie/internal/server"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// optimizeWorld runs a query through a world's optimizer directly and
// returns the winning access plan.
func optimizeWorld(t *testing.T, w *server.World, q server.QuerySpec) *volcano.PExpr {
	t.Helper()
	tree, want, err := w.Build(q)
	if err != nil {
		t.Fatalf("%s %s: build: %v", w.Name, q, err)
	}
	opt := volcano.NewOptimizer(w.RS)
	plan, err := opt.OptimizeContext(context.Background(), tree, want)
	if err != nil {
		t.Fatalf("%s %s: optimize: %v", w.Name, q, err)
	}
	return plan
}

// TestPlanRoundTrip optimizes queries in every default world,
// serializes each winning plan through the wire codec, and asserts the
// decoded operator tree renders byte-identically to the original. The
// relational E3/E4 queries exercise predicates (selection constants and
// join terms) and orders; oodb exercises the remaining value kinds.
func TestPlanRoundTrip(t *testing.T) {
	reg, err := server.DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	cases := []server.QuerySpec{
		{Family: "E1", N: 3},
		{Family: "E2", N: 3},
		{Family: "E3", N: 3},
		{Family: "E4", N: 3},
		{Family: "E2", N: 4, Graph: "star"},
	}
	for _, name := range reg.Names() {
		w, _ := reg.Lookup(name)
		for _, q := range cases {
			plan := optimizeWorld(t, w, q)
			ref := plan.ToExpr().Format()

			node, err := wire.EncodePlan(plan)
			if err != nil {
				t.Fatalf("%s %s: encode: %v", name, q, err)
			}
			raw, err := json.Marshal(node)
			if err != nil {
				t.Fatalf("%s %s: marshal: %v", name, q, err)
			}
			var back wire.PlanNode
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("%s %s: unmarshal: %v", name, q, err)
			}
			decoded, err := wire.DecodePlan(w.RS.Algebra, &back)
			if err != nil {
				t.Fatalf("%s %s: decode: %v", name, q, err)
			}
			if got := decoded.Format(); got != ref {
				t.Errorf("%s %s: round-trip mismatch\n--- original\n%s\n--- decoded\n%s", name, q, ref, got)
			}
		}
	}
}

// TestPlanErrors pins the codec's failure modes: unknown algorithm
// names, unknown properties, and malformed nodes must error, not panic.
func TestPlanErrors(t *testing.T) {
	reg, err := server.DefaultRegistry(3, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Lookup("oodb/volcano")
	alg := w.RS.Algebra

	if _, err := wire.DecodePlan(alg, nil); err == nil {
		t.Error("nil node: want error")
	}
	if _, err := wire.DecodePlan(alg, &wire.PlanNode{}); err == nil {
		t.Error("node with neither op nor file: want error")
	}
	if _, err := wire.DecodePlan(alg, &wire.PlanNode{Op: "NO_SUCH_ALG"}); err == nil {
		t.Error("unknown algorithm: want error")
	}
	if _, err := wire.DecodePlan(alg, &wire.PlanNode{
		File:  "F1",
		Props: map[string]wire.PropValue{"no_such_prop": {Kind: "int", Num: 1}},
	}); err == nil {
		t.Error("unknown property: want error")
	}
	if _, err := wire.DecodePlan(alg, &wire.PlanNode{
		File:  "F1",
		Props: map[string]wire.PropValue{"num_records": {Kind: "no_such_kind"}},
	}); err == nil {
		t.Error("unknown value kind: want error")
	}
}

// TestEntryRoundTrip encodes a full cache entry — plan plus cold-run
// shape statistics — and decodes it against the same algebra.
func TestEntryRoundTrip(t *testing.T) {
	reg, err := server.DefaultRegistry(4, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Lookup("oodb/volcano")
	plan := optimizeWorld(t, w, server.QuerySpec{Family: "E2", N: 3})
	in := volcano.RemoteEntry{
		Plan:      plan,
		Cost:      plan.Cost(w.RS.Class),
		Groups:    25,
		Exprs:     77,
		Merges:    3,
		MemoBytes: 4096,
	}
	payload, err := wire.EncodeEntry(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := wire.DecodeEntry(w.RS.Algebra, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Plan.ToExpr().Format(), plan.ToExpr().Format(); got != want {
		t.Errorf("entry plan round-trip mismatch\n--- original\n%s\n--- decoded\n%s", want, got)
	}
	if out.Cost != in.Cost || out.Groups != in.Groups || out.Exprs != in.Exprs ||
		out.Merges != in.Merges || out.MemoBytes != in.MemoBytes {
		t.Errorf("entry stats round-trip mismatch: got %+v, want %+v", out, in)
	}
}

// TestEntryErrors pins the entry codec's failure modes.
func TestEntryErrors(t *testing.T) {
	reg, err := server.DefaultRegistry(3, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Lookup("oodb/volcano")
	alg := w.RS.Algebra

	if _, err := wire.EncodeEntry(volcano.RemoteEntry{}); err == nil {
		t.Error("encode entry without a plan: want error")
	}
	if _, err := wire.DecodeEntry(alg, []byte("not json")); err == nil {
		t.Error("decode garbage: want error")
	}
	if _, err := wire.DecodeEntry(alg, []byte(`{"cost": 1}`)); err == nil {
		t.Error("decode entry without a plan: want error")
	}
	if _, err := wire.DecodeEntry(alg, []byte(`{"plan": {"op": "NO_SUCH_ALG"}}`)); err == nil {
		t.Error("decode entry with an undecodable plan: want error")
	}
}

// TestNoCoreAttrReachesJSON: core.Attr is a process-local symbol with one
// unexported field, so encoding/json would render it "{}" without a word
// — and a number would be worse. wire.Attr is the only wire form. The
// test reads the repository's source: no struct with a json-tagged field
// may hold a core value that contains attributes.
func TestNoCoreAttrReachesJSON(t *testing.T) {
	if b, err := json.Marshal(core.A("R", "a")); err != nil || string(b) != "{}" {
		t.Fatalf("json.Marshal(core.Attr) = %s, %v: the premise of this test moved", b, err)
	}
	holdsAttr := regexp.MustCompile(`\bcore\.(Attr|Attrs|Order|Pred)\b`)
	root := filepath.Join("..", "..")
	structs := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pattern := holdsAttr
		if file.Name.Name == "core" {
			pattern = regexp.MustCompile(`\b(Attr|Attrs|Order|Pred)\b`)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			tagged := false
			for _, f := range st.Fields.List {
				tagged = tagged || f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`)
			}
			if !tagged {
				return true
			}
			structs++
			for _, f := range st.Fields.List {
				var typ strings.Builder
				if err := printer.Fprint(&typ, fset, f.Type); err != nil {
					t.Fatal(err)
				}
				if pattern.MatchString(typ.String()) {
					t.Errorf("%s: a struct that reaches encoding/json has a field of type %s", fset.Position(f.Pos()), typ.String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if structs < 20 {
		t.Errorf("saw only %d json-tagged structs: the walk no longer covers the repository", structs)
	}
}
