package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	osexec "os/exec"
	"testing"

	"prairie/internal/core"
	"prairie/internal/wire"
)

// TestAttrCeilingLeavesServerServing feeds the cache-entry decoder
// (wire.DecodeEntry) hostile entries beside a live server: plans that
// name attributes nobody has heard of, one fresh name each. The
// process's attribute table is append-only, so it must stop taking
// names at core.MaxAttrs — decoding fails, as for any malformed payload
// — and the server must go on decoding plans over known names and
// answering queries. Filling the table would starve the rest of this
// test binary: the test re-executes itself and does it in the child.
func TestAttrCeilingLeavesServerServing(t *testing.T) {
	const env = "PRAIRIE_TEST_FILL_ATTR_TABLE"
	if os.Getenv(env) == "" {
		cmd := osexec.Command(os.Args[0], "-test.run=^TestAttrCeilingLeavesServerServing$")
		cmd.Env = append(os.Environ(), env+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	srv, hs := testServer(t, nil)
	w, _ := srv.cfg.Registry.Lookup("oodb/volcano")
	before := optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: w.Name, Query: QuerySpec{Family: "E2", N: 3}, IncludePlan: true})

	hostile := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"plan":{"file":"C1","props":{"attributes":{"kind":"attrs","attrs":[{"rel":"C1","name":"hostile%d"}]}}},"cost":1}`, i))
	}
	var err error
	n := 0
	for ; err == nil && n <= core.MaxAttrs; n++ {
		_, err = wire.DecodeEntry(w.RS.Algebra, hostile(n))
	}
	if !errors.Is(err, core.ErrAttrTableFull) {
		t.Fatalf("after %d fresh names (ceiling %d): err = %v, want ErrAttrTableFull", n, core.MaxAttrs, err)
	}
	if _, err := wire.DecodeEntry(w.RS.Algebra, hostile(n)); !errors.Is(err, core.ErrAttrTableFull) {
		t.Fatalf("the table took a name after refusing one: %v", err)
	}
	t.Logf("the table refused fresh name number %d", n)

	known, err := json.Marshal(wire.CacheEntry{Plan: before.Plan, Cost: before.Cost})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeEntry(w.RS.Algebra, known); err != nil {
		t.Fatalf("a plan over known names no longer decodes: %v", err)
	}
	// Queries the server has not seen: full searches, on every world.
	for _, name := range srv.cfg.Registry.Names() {
		after := optimizeOK(t, hs.URL, OptimizeRequest{Ruleset: name, Query: QuerySpec{Family: "E3", N: 4}, IncludePlan: true})
		if after.PlanText == "" || after.CacheHit {
			t.Errorf("%s: after the flood: %+v", name, after)
		}
	}
}
