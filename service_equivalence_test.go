package prairie_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"prairie/internal/data"
	"prairie/internal/exec"
	"prairie/internal/oodb"
	"prairie/internal/qgen"
	"prairie/internal/server"
	"prairie/internal/volcano"
	"prairie/internal/wire"
)

// This file extends the differential harness of equivalence_test.go to
// the service boundary: every plan the HTTP optimizer hands back — cold,
// cache-hit, and budget-degraded — is deserialized from the wire,
// compiled by internal/exec, executed on synthetic data, and bag-compared
// against the naive evaluation of the logical query. The service may shed
// or degrade a request, but it must never answer with a wrong plan.

// svcPost sends one optimize request and decodes the response, failing
// the test on any non-200.
func svcPost(t *testing.T, url string, req server.OptimizeRequest) server.OptimizeResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var or server.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		t.Fatalf("%s %s: decode: %v", req.Ruleset, req.Query, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", req.Ruleset, req.Query, resp.StatusCode)
	}
	return or
}

// runWirePlan decodes a wire plan against the world's algebra, compiles
// it, and executes it.
func runWirePlan(t *testing.T, w *server.World, db *data.DB, or server.OptimizeResponse) *exec.Result {
	t.Helper()
	if or.Plan == nil {
		t.Fatalf("%s %s: response carries no plan tree", w.Name, or.Query)
	}
	tree, err := wire.DecodePlan(w.RS.Algebra, or.Plan)
	if err != nil {
		t.Fatalf("%s %s: decode plan: %v", w.Name, or.Query, err)
	}
	it, err := exec.NewCompiler(db, w.ExecProps).Compile(tree)
	if err != nil {
		t.Fatalf("%s %s: compile: %v", w.Name, or.Query, err)
	}
	got, err := exec.Run(it)
	if err != nil {
		t.Fatalf("%s %s: execute: %v", w.Name, or.Query, err)
	}
	return got
}

// TestServiceDifferential: for both OODB worlds and every expression
// family, the plan served cold and the plan served from cache both
// execute to the same bag of tuples as the naive evaluator.
func TestServiceDifferential(t *testing.T) {
	const maxN, seed = 4, int64(101)
	reg, err := server.DefaultRegistry(maxN, seed, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, name := range []string{"oodb/volcano", "oodb/prairie"} {
		w, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("world %s missing", name)
		}
		// The naive reference evaluates an independent logical build over
		// the world's own catalog and data; SameBag ignores tuple order,
		// so peeled root enforcers don't matter.
		db := data.Populate(w.Cat, seed, 32)
		o := oodb.New(w.Cat)
		naive := &exec.Naive{DB: db, P: exec.Props{
			Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
		}}
		for _, e := range []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4} {
			q := server.QuerySpec{Family: e.String(), N: 3}
			logical, err := qgen.Build(o, e, q.N)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Eval(logical)
			if err != nil {
				t.Fatal(err)
			}

			req := server.OptimizeRequest{Ruleset: name, Query: q, IncludePlan: true}
			cold := svcPost(t, hs.URL, req)
			if cold.CacheHit {
				t.Errorf("%s %s: first request was a cache hit", name, q)
			}
			if got := runWirePlan(t, w, db, cold); !exec.SameBag(got, want) {
				t.Errorf("%s %s: cold plan result differs from naive evaluation", name, q)
			}

			warm := svcPost(t, hs.URL, req)
			if !warm.CacheHit {
				t.Errorf("%s %s: repeat request missed the cache", name, q)
			}
			if warm.PlanText != cold.PlanText {
				t.Errorf("%s %s: cached plan %q differs from cold plan %q", name, q, warm.PlanText, cold.PlanText)
			}
			if got := runWirePlan(t, w, db, warm); !exec.SameBag(got, want) {
				t.Errorf("%s %s: cached plan result differs from naive evaluation", name, q)
			}
		}
	}
}

// TestServiceDifferentialDegraded: a budget-degraded answer (the "tiny"
// class on an E4 chain that exhausts it) is still a correct plan — worse
// cost at most, never wrong tuples.
func TestServiceDifferentialDegraded(t *testing.T) {
	const maxN, seed = 4, int64(101)
	reg, err := server.DefaultRegistry(maxN, seed, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	w, _ := reg.Lookup("oodb/volcano")
	db := data.Populate(w.Cat, seed, 32)
	o := oodb.New(w.Cat)
	naive := &exec.Naive{DB: db, P: exec.Props{
		Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
	}}
	logical, err := qgen.Build(o, qgen.E4, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Eval(logical)
	if err != nil {
		t.Fatal(err)
	}

	or := svcPost(t, hs.URL, server.OptimizeRequest{
		Ruleset:     "oodb/volcano",
		Query:       server.QuerySpec{Family: "E4", N: 4},
		Budget:      "tiny",
		IncludePlan: true,
	})
	if !or.Degraded {
		t.Skipf("E4 n=4 finished within the tiny budget (cause %q); nothing to degrade", or.DegradeCause)
	}
	if got := runWirePlan(t, w, db, or); !exec.SameBag(got, want) {
		t.Error("degraded plan result differs from naive evaluation")
	}
}

// TestGreedyPlanDifferential: volcano.GreedyPlan is what a
// budget-exhausted search falls back to, and no other test executes its
// plans (the benchmark only costs them). Called as a library function on
// both OODB worlds, its plan for every expression family executes to the
// same bag of tuples as the naive evaluator.
func TestGreedyPlanDifferential(t *testing.T) {
	const maxN, n, seed = 4, 3, int64(101)
	reg, err := server.DefaultRegistry(maxN, seed, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"oodb/volcano", "oodb/prairie"} {
		w, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("world %s missing", name)
		}
		db := data.Populate(w.Cat, seed, 32)
		o := oodb.New(w.Cat)
		naive := &exec.Naive{DB: db, P: exec.Props{
			Ord: o.Ord, JP: o.JP, SP: o.SP, PA: o.PA, MA: o.MA, UA: o.UA,
		}}
		for _, e := range []qgen.ExprKind{qgen.E1, qgen.E2, qgen.E3, qgen.E4} {
			logical, err := qgen.Build(o, e, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Eval(logical)
			if err != nil {
				t.Fatal(err)
			}
			tree, req, err := w.Build(server.QuerySpec{Family: e.String(), N: n})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := volcano.GreedyPlan(w.RS, tree, req)
			if err != nil {
				t.Fatalf("%s %v: greedy plan: %v", name, e, err)
			}
			it, err := exec.NewCompiler(db, w.ExecProps).Compile(plan)
			if err != nil {
				t.Fatalf("%s %v: compile: %v", name, e, err)
			}
			got, err := exec.Run(it)
			if err != nil {
				t.Fatalf("%s %v: execute: %v", name, e, err)
			}
			if !exec.SameBag(got, want) {
				t.Errorf("%s %v: greedy plan result differs from naive evaluation (%d vs %d rows)",
					name, e, len(got.Rows), len(want.Rows))
			}
		}
	}
}
