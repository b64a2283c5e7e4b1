package wire_test

import (
	"testing"

	"prairie/internal/server"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// FuzzCacheEntry drives the cache-entry codec bench measures with
// arbitrary bytes. Garbage must come back as an error — never a panic —
// and anything that decodes
// must reach a fixed point: re-encoding the decoded entry and decoding
// again yields the same plan and statistics.
func FuzzCacheEntry(f *testing.F) {
	reg, err := server.DefaultRegistry(3, 101, "")
	if err != nil {
		f.Fatal(err)
	}
	w, _ := reg.Lookup("oodb/volcano")
	alg := w.RS.Algebra

	// Seed with real payloads: optimized plans from two families, plus
	// structured near-misses the mutator can grow from.
	opt := volcano.NewOptimizer(w.RS)
	for _, q := range []server.QuerySpec{{Family: "E2", N: 2}, {Family: "E3", N: 3}} {
		tree, want, err := w.Build(q)
		if err != nil {
			f.Fatal(err)
		}
		plan, err := opt.Optimize(tree, want)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := wire.EncodeEntry(volcano.RemoteEntry{Plan: plan, Cost: 12.5, Groups: 9, Exprs: 30})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"plan":{"file":"F1"},"cost":1}`))
	f.Add([]byte(`{"plan":{"op":"Hash_join","kids":[{"file":"F1"},{"file":"F1"}]}}`))
	f.Add([]byte(`{"plan":{"op":"Hash_join","kids":[{"file":"F1"}]}}`))
	f.Add([]byte(`{"plan":{"file":"F1","props":{"num_records":{"kind":"pred","pred":{"op":"TRUE"}}}}}`))
	f.Add([]byte(`{"plan":{"file":"F1","props":{"selection_predicate":{"kind":"pred","pred":{"op":"=","left":{"rel":"C1","name":"b"},"const":{"kind":"int","num":3}}}}}}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		e1, err := wire.DecodeEntry(alg, payload)
		if err != nil {
			return // rejected without panicking: exactly the contract
		}
		again, err := wire.EncodeEntry(e1)
		if err != nil {
			t.Fatalf("decoded entry failed to re-encode: %v", err)
		}
		e2, err := wire.DecodeEntry(alg, again)
		if err != nil {
			t.Fatalf("re-encoded entry failed to decode: %v", err)
		}
		if g1, g2 := e1.Plan.ToExpr().Format(), e2.Plan.ToExpr().Format(); g1 != g2 {
			t.Fatalf("plan not a fixed point\n--- first decode\n%s\n--- second decode\n%s", g1, g2)
		}
		if e1.Cost != e2.Cost || e1.Groups != e2.Groups || e1.Exprs != e2.Exprs ||
			e1.Merges != e2.Merges || e1.MemoBytes != e2.MemoBytes {
			t.Fatalf("stats not a fixed point: %+v vs %+v", e1, e2)
		}
	})
}
