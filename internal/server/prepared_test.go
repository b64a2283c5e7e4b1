package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"prairie/internal/core"
	"prairie/internal/volcano"
)

// dslRegistry is the default world set with the dslrules example served
// as the dsl world.
func dslRegistry(t *testing.T, maxN int) *Registry {
	t.Helper()
	src, err := os.ReadFile("../../examples/dslrules/rules.prairie")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := DefaultRegistry(maxN, 101, string(src))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// treeState is what a prepared query must keep: its tree's and
// requirement's renderings and the tree's cache fingerprint.
type treeState struct {
	tree, want, canon string
	fp                uint64
}

func stateOf(t *testing.T, w *World, tree *core.Expr, want *core.Descriptor) treeState {
	t.Helper()
	if tree == nil || want == nil {
		t.Fatalf("%s: prepared tree %v, requirement %v", w.Name, tree, want)
	}
	fp, canon := w.RS.Fingerprint(tree)
	return treeState{tree.Format(), want.String(), canon, fp}
}

// TestPreparedQueriesReadOnly: a world's prepared trees are shared by
// every request of their shape, so nothing that runs on one may write it.
// Every world × the serve_churn shapes runs, all at once, concurrent
// misses and hits, tiny-budget degrades (one of them to the greedy plan
// over the tree) and an executed plan; afterwards every tree and
// requirement renders and fingerprints as before. `make race` runs it
// under the race detector.
func TestPreparedQueriesReadOnly(t *testing.T) {
	reg := dslRegistry(t, 6)
	const workers = 8
	srv, err := New(Config{Registry: reg, MaxInflight: workers})
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[QuerySpec]bool{}
	for _, rq := range servePools() {
		shapes[rq.Query] = true
	}
	type prep struct {
		world *World
		q     QuerySpec
		tree  *core.Expr
		want  *core.Descriptor
		state treeState
	}
	var preps []prep
	var items []OptimizeRequest
	epoch := srv.Cache().Epoch()
	for _, name := range reg.Names() {
		w, _ := reg.Lookup(name)
		for q := range shapes {
			if q.Graph == "star" && (name == "relational" || name == "dsl") {
				continue // a 400: these worlds build linear chains only
			}
			if name == "dsl" && q.Family != "E1" {
				continue // a 400: the dsl world builds family E1 only
			}
			tree, want, err := w.prepared(q, epoch)
			if err != nil {
				t.Fatalf("%s %v: %v", name, q, err)
			}
			preps = append(preps, prep{w, q, tree, want, stateOf(t, w, tree, want)})
			items = append(items, OptimizeRequest{Ruleset: name, Query: q})
		}
	}

	// A tiny budget degrades to the best plan of the partial memo; a tiny
	// request whose client has gone degrades to the greedy plan over the
	// tree itself (a degraded plan is never cached, so it always searches).
	type job struct {
		req       OptimizeRequest
		cancelled bool
	}
	var jobs []job
	for _, rq := range items { // every item first, racing its own misses below
		jobs = append(jobs, job{rq, false})
	}
	for _, rq := range items {
		tiny, exec := rq, rq
		tiny.Budget, exec.Execute = "tiny", true
		jobs = append(jobs, job{rq, false}, job{tiny, false}, job{tiny, true}, job{rq, false})
		if w, _ := reg.Lookup(rq.Ruleset); w.Cat != nil {
			jobs = append(jobs, job{exec, false})
		}
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	var next, greedy atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				body, _ := json.Marshal(jobs[i].req)
				r := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
				if jobs[i].cancelled {
					r = r.WithContext(gone)
				}
				w := httptest.NewRecorder()
				srv.Handler().ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					t.Errorf("%s: status %d: %.300s", body, w.Code, w.Body)
				}
				if bytes.Contains(w.Body.Bytes(), []byte(`"degrade_path":"`+volcano.DegradePathGreedy+`"`)) {
					greedy.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if greedy.Load() == 0 {
		t.Error("no tiny request fell back to the greedy plan over its tree")
	}
	for _, p := range preps {
		if got := stateOf(t, p.world, p.tree, p.want); got != p.state {
			t.Errorf("%s %v: the prepared query changed while requests ran on it:\n%+v\nwas\n%+v", p.world.Name, p.q, got, p.state)
		}
		if tree, want, _ := p.world.prepared(p.q, epoch); tree != p.tree || want != p.want {
			t.Errorf("%s %v: the epoch's prepared query was replaced", p.world.Name, p.q)
		}
	}
}

// TestPreparedMatchesBuild: for every world and every spelling of family,
// graph and n — valid, junk, odd case and whitespace — prepared answers
// what Build answers (the same error text, or a tree and requirement that
// render alike), returns the same tree again within one epoch, and a new
// one after /v1/invalidate.
func TestPreparedMatchesBuild(t *testing.T) {
	reg := dslRegistry(t, 4)
	srv, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var specs []QuerySpec
	for _, fam := range []string{"E1", "E2", "E3", "E4", " e2 ", "e4", "E5", "bogus", ""} {
		for _, g := range []string{"", "linear", "star", "LINEAR", " star", "bogus"} {
			for _, n := range []int{-1, 1, 2, 3, 4, 5} {
				specs = append(specs, QuerySpec{Family: fam, N: n, Graph: g})
			}
		}
	}
	for _, name := range reg.Names() {
		w, _ := reg.Lookup(name)
		epoch := srv.Cache().Epoch()
		first := map[QuerySpec]*core.Expr{}
		for _, q := range specs {
			tree, want, err := w.prepared(q, epoch)
			btree, bwant, berr := w.Build(q)
			switch {
			case (err == nil) != (berr == nil):
				t.Fatalf("%s %+v: prepared says %v, Build %v", name, q, err, berr)
			case err != nil:
				if err.Error() != berr.Error() {
					t.Fatalf("%s %+v: prepared says %q, Build %q", name, q, err, berr)
				}
				continue
			}
			if ps, bs := stateOf(t, w, tree, want), stateOf(t, w, btree, bwant); ps != bs {
				t.Fatalf("%s %+v: prepared\n%+v\nBuild\n%+v", name, q, ps, bs)
			}
			if again, _, _ := w.prepared(q, epoch); again != tree {
				t.Fatalf("%s %+v: a second tree within one epoch", name, q)
			}
			first[q] = tree
		}
		if len(first) == 0 {
			t.Fatalf("%s: no spelling prepared a tree", name)
		}
		serve(t, srv, "/v1/invalidate", struct{}{})
		if srv.Cache().Epoch() == epoch {
			t.Fatal("/v1/invalidate left the epoch")
		}
		for q, old := range first {
			if tree, _, _ := w.prepared(q, srv.Cache().Epoch()); tree == old {
				t.Fatalf("%s %+v: the tree survived /v1/invalidate", name, q)
			}
		}
	}
}

// TestCachelessServerRebuildsTrees: a server without a plan cache has no
// epoch to tell an old prepared tree by, so each request builds its own,
// and a catalog change made before /v1/invalidate reaches the next
// request's search.
func TestCachelessServerRebuildsTrees(t *testing.T) {
	reg, err := DefaultRegistry(3, 101, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := reg.Lookup("oodb/prairie")
	build := w.Build
	var trees []*core.Expr
	w.Build = func(q QuerySpec) (*core.Expr, *core.Descriptor, error) {
		tree, want, err := build(q)
		trees = append(trees, tree)
		return tree, want, err
	}
	req := OptimizeRequest{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E2", N: 3}}
	serve(t, srv, "/v1/optimize", req)
	serve(t, srv, "/v1/invalidate", struct{}{})
	serve(t, srv, "/v1/optimize", req)
	if len(trees) != 2 || trees[0] == trees[1] {
		t.Fatalf("a cacheless server built %d trees for two requests around /v1/invalidate, want two different ones", len(trees))
	}
}
