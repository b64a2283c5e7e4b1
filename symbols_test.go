package prairie_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"testing"

	"prairie/internal/catalog"
	"prairie/internal/core"
	"prairie/internal/server"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// An attribute's symbol number depends on the order names were interned
// in, which differs between processes (each interns names in the order
// its requests and decoded plans bring them). Nothing a process renders,
// hashes into a cache key or sends may depend on it. The test below runs
// itself twice — once as is, once in a child whose TestMain has given
// every attribute another number — and compares what the two produce.
const (
	scrambleEnv = "PRAIRIE_TEST_SCRAMBLE_SYMBOLS" // child: renumber before anything else
	dumpEnv     = "PRAIRIE_TEST_SYMBOL_DUMP"      // child: where to leave its output
)

func TestMain(m *testing.M) {
	if os.Getenv(scrambleEnv) != "" {
		scrambleSymbols()
	}
	os.Exit(m.Run())
}

// scrambleSymbols interns junk names and then every attribute of the
// default worlds in reverse order, so each ends up with a number it would
// not otherwise get and their relative order flips. The names are spelled
// out: building a catalog would intern them in catalog order.
func scrambleSymbols() {
	for i := 0; i < 1000; i++ {
		core.A(fmt.Sprintf("junk%d", i), "x")
	}
	for i := 6; i >= 1; i-- {
		core.A(fmt.Sprintf("R%d", i), "a") // the dsl world's relations
		for _, name := range []string{"y", "x", "tags", "ref", "c", "b", "a", "id"} {
			core.A(catalog.SubClassName(i), name)
			core.A("junk", name+catalog.ClassName(i))
			core.A(catalog.ClassName(i), name)
		}
	}
}

// symbolDump renders, for every program of internal/volcano's
// TestGoldenClosures and one program of the dsl world, everything that
// leaves the optimizer: plan text, cost, wire bytes, fingerprint (hash
// and canonical string) and the memo's dump.
func symbolDump(t *testing.T) []byte {
	src, err := os.ReadFile(filepath.Join("examples", "dslrules", "rules.prairie"))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := server.DefaultRegistry(6, 101, string(src))
	if err != nil {
		t.Fatal(err)
	}
	type program struct {
		world string
		q     server.QuerySpec
	}
	programs := []program{{"dsl", server.QuerySpec{Family: "E1", N: 6}}}
	for n := 4; n <= 6; n++ {
		programs = append(programs, program{"relational", server.QuerySpec{Family: "E1", N: n}})
	}
	for _, world := range []string{"oodb/prairie", "oodb/volcano"} {
		for _, graph := range []string{"", "star"} {
			for _, f := range []struct {
				family string
				lo, hi int
			}{{"E1", 4, 6}, {"E2", 3, 5}, {"E3", 3, 4}, {"E4", 2, 4}} {
				hi := f.hi
				if graph == "star" && f.family == "E4" {
					hi = 3
				}
				for n := f.lo; n <= hi; n++ {
					programs = append(programs, program{world, server.QuerySpec{Family: f.family, N: n, Graph: graph}})
				}
			}
		}
	}
	var b bytes.Buffer
	for _, p := range programs {
		w, ok := reg.Lookup(p.world)
		if !ok {
			t.Fatalf("no world %s", p.world)
		}
		tree, want, err := w.Build(p.q)
		if err != nil {
			t.Fatal(err)
		}
		hash, canon := w.RS.Fingerprint(tree)
		opt := volcano.NewOptimizer(w.RS)
		plan, err := opt.Optimize(tree, want)
		if err != nil {
			t.Fatalf("%s %s: %v", p.world, p.q, err)
		}
		node, err := wire.EncodePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		wireBytes, err := json.Marshal(node)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s %s\nfingerprint %016x %s\nplan %s\ncost %v\nwire %s\nmemo\n%s",
			p.world, p.q, hash, canon, plan, plan.Cost(w.RS.Class), wireBytes, opt.Memo.Dump())
	}
	return b.Bytes()
}

func TestSymbolNumbersInvisible(t *testing.T) {
	dump := symbolDump(t)
	if path := os.Getenv(dumpEnv); path != "" { // the renumbered child
		if err := os.WriteFile(path, dump, 0o600); err != nil {
			t.Fatal(err)
		}
		return
	}
	path := filepath.Join(t.TempDir(), "dump")
	cmd := osexec.Command(os.Args[0], "-test.run=^TestSymbolNumbersInvisible$")
	cmd.Env = append(os.Environ(), scrambleEnv+"=1", dumpEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("the renumbered run failed: %v\n%s", err, out)
	}
	other, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(dump, other) {
		return
	}
	mine, theirs := bytes.Split(dump, []byte("\n")), bytes.Split(other, []byte("\n"))
	for i := range mine {
		if i >= len(theirs) || !bytes.Equal(mine[i], theirs[i]) {
			t.Fatalf("output depends on symbol numbers; first difference at line %d:\n  as is:      %.300s\n  renumbered: %.300s",
				i+1, mine[i], theirs[min(i, len(theirs)-1)])
		}
	}
	t.Fatalf("output depends on symbol numbers: the renumbered run printed %d more lines", len(theirs)-len(mine))
}
