package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzOptimizeRequest drives the one input the server takes from
// outside — a /v1/optimize body — through the handler's own decoding
// (MaxBytesReader, DisallowUnknownFields, the world lookup) and request
// preparation, stopping short of the search. Nothing may panic, and
// every body is either refused with a 4xx whose error is non-empty or
// becomes a servable request: 2 <= n <= the world's MaxN under a known
// budget class, whose prepared tree is the one Build makes for it.
func FuzzOptimizeRequest(f *testing.F) {
	reg, err := DefaultRegistry(4, 101, "")
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{Registry: reg})
	if err != nil {
		f.Fatal(err)
	}
	// The requests TestWireSchemaGolden drives, then a few refusals.
	for _, req := range []OptimizeRequest{
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E2", N: 3, Graph: "star"}, IncludePlan: true},
		{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E4", N: 3}, Budget: "tiny"},
		{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E1", N: 3}, Execute: true},
		{Ruleset: "relational", Query: QuerySpec{Family: "E1", N: 2}},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"ruleset":"oodb/volcano","query":{"family":"E1","n":3},"tier":"full"}`))
	f.Add([]byte(`{"ruleset":"relational","query":{"family":"E1","n":99},"budget":"nope"}`))
	f.Add([]byte(`{"ruleset":"dsl","query":{"family":"E1","n":2}}`))
	// Spellings that share a prepared-query slot, or fall in the one for
	// whatever does not parse.
	f.Add([]byte(`{"ruleset":"oodb/prairie","query":{"family":" e2 ","n":3,"graph":"linear"}}`))
	f.Add([]byte(`{"ruleset":"relational","query":{"family":"E2","n":3,"graph":"LINEAR"}}`))
	f.Add([]byte(`{"ruleset":"oodb/volcano","query":{"family":"bogus","n":3,"graph":"bogus"}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		req, world, ok := srv.decodeOptimize(w, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
		if ok {
			p, err := srv.prepare(world, req)
			if err == nil {
				if n := p.req.Query.N; n < 2 || n > world.MaxN {
					t.Fatalf("accepted n=%d for %s (MaxN %d): %s", n, world.Name, world.MaxN, body)
				}
				if _, known := srv.budgets[budgetName(p.req.Budget)]; !known {
					t.Fatalf("accepted unknown budget class %q: %s", p.req.Budget, body)
				}
				if tree, _, err := world.Build(p.req.Query); err != nil || tree.Format() != p.tree.Format() {
					t.Fatalf("the prepared tree is not what Build makes (%v): %s", err, body)
				}
				return
			}
			srv.fail(w, nil, http.StatusBadRequest, err)
		}
		if w.Code < 400 || w.Code > 499 {
			t.Fatalf("refusal with status %d: %s", w.Code, body)
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Fatalf("refusal %d without an error (%v): %s", w.Code, err, w.Body.Bytes())
		}
	})
}
