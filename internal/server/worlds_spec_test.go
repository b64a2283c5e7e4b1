package server

import (
	"runtime"
	"testing"
	"weak"

	"prairie/internal/oodb"
	"prairie/internal/qgen"
	"prairie/internal/volcano"
)

// TestVolcanoWorldDropsTheSpec: oodb.New compiles the Prairie
// specification to get the algebra both OODB optimizers share, but the
// hand-coded world never translates it, so a built oodb/volcano world
// must not keep the compiled rule set reachable — while still searching.
func TestVolcanoWorldDropsTheSpec(t *testing.T) {
	o := oodb.New(qgen.Catalog(6, 101, false))
	spec := weak.Make(o.PrairieRules())
	if spec.Value() == nil {
		t.Fatal("oodb.New kept no compiled rule set to watch")
	}
	w := OODBVolcanoWorld(o, 6)
	o = nil
	runtime.GC()
	if spec.Value() != nil {
		t.Error("the oodb/volcano world keeps the compiled Prairie rule set reachable")
	}
	tree, want, err := w.Build(QuerySpec{Family: "E2", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := volcano.NewOptimizer(w.RS).Optimize(tree, want); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(w)
}
