package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keyPaths adds the key paths of a decoded JSON value to set: object
// keys joined by '.', array elements as "[]". A plan node's kids are
// plan nodes, so their keys are filed under the node's own path.
func keyPaths(set map[string]bool, prefix string, v any) {
	switch v := v.(type) {
	case map[string]any:
		for k, kid := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			set[p] = true
			keyPaths(set, p, kid)
		}
	case []any:
		elem := prefix + "[]"
		if node, ok := strings.CutSuffix(prefix, ".kids"); ok {
			elem = node
		}
		for _, kid := range v {
			keyPaths(set, elem, kid)
		}
	}
}

func section(b *strings.Builder, title string, set map[string]bool) {
	lines := make([]string, 0, len(set))
	for k := range set {
		lines = append(lines, k)
	}
	sort.Strings(lines)
	b.WriteString("# " + title + "\n" + strings.Join(lines, "\n") + "\n\n")
}

// TestWireSchemaGolden pins what the service puts on the wire: with the
// observers on, a miss, a hit, a tiny-budget degrade, an executed
// request and a relational one are driven, and the key paths of the /v1/optimize responses
// and of the flight records, plus the metric names on /metrics, are
// compared with testdata/wire_schema.golden. A field or metric that
// appears, disappears or moves shows up as a diff of that file; the
// failure prints the run's whole schema, which is the file's new content
// when the change is intended.
func TestWireSchemaGolden(t *testing.T) {
	_, hs := testServer(t, observedConfig)
	optimize, record := map[string]bool{}, map[string]bool{}
	drive := func(req OptimizeRequest) {
		t.Helper()
		resp, body := postJSON(t, hs.URL+"/v1/optimize", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		keyPaths(optimize, "", v)
		_, rec := getJSONBody(t, hs.URL+"/v1/debug/requests/"+resp.Header.Get("X-Request-Id"))
		if err := json.Unmarshal(rec, &v); err != nil {
			t.Fatalf("flight record: %v: %s", err, rec)
		}
		keyPaths(record, "", v)
	}
	e2 := OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E2", N: 3, Graph: "star"}, IncludePlan: true}
	drive(e2) // miss
	drive(e2) // hit
	drive(OptimizeRequest{Ruleset: "oodb/volcano", Query: QuerySpec{Family: "E4", N: 3}, Budget: "tiny"})
	drive(OptimizeRequest{Ruleset: "oodb/prairie", Query: QuerySpec{Family: "E1", N: 3}, Execute: true})
	drive(OptimizeRequest{Ruleset: "relational", Query: QuerySpec{Family: "E1", N: 2}}) // fires an enforcer

	metrics := map[string]bool{}
	_, text := getJSONBody(t, hs.URL+"/metrics")
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		metrics[line[:strings.IndexAny(line, "{ ")]] = true
	}

	var got strings.Builder
	section(&got, "/v1/optimize response", optimize)
	section(&got, "/v1/debug/requests/{id} record", record)
	section(&got, "/metrics names", metrics)
	const golden = "testdata/wire_schema.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("wire schema differs from %s:\n%s\n--- this run's schema:\n%s", golden, lineDiff(string(want), got.String()), got.String())
	}
}

// lineDiff lists the lines only one of the two texts has.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]--
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]++
	}
	var out []string
	for l, n := range count {
		if n < 0 {
			out = append(out, "- "+l)
		} else if n > 0 {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestRemovedTierFieldRejected: "tier" was a request field; now that one
// planner serves every request it is refused like any unknown field —
// 400 naming the field, nothing searched, one error counted per request
// — on /v1/optimize, whatever its value.
func TestRemovedTierFieldRejected(t *testing.T) {
	srv, hs := testServer(t, observedConfig)
	const item = `{"ruleset":"oodb/volcano","query":{"family":"E1","n":3}`
	tiers := []string{"full", "greedy", "auto"}
	for _, tier := range tiers {
		body := item + `,"tier":"` + tier + `"}`
		resp, err := http.Post(hs.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, `"tier"`) {
			t.Errorf("%s: status %d, error %q; want 400 naming \"tier\"", body, resp.StatusCode, eb.Error)
		}
	}
	if st := srv.Cache().Snapshot(); st.Hits+st.Misses != 0 {
		t.Errorf("a refused request reached the plan cache: %+v", st)
	}
	_, metrics := getJSONBody(t, hs.URL+"/metrics")
	if want := []byte("\nprairie_server_errors_total " + strconv.Itoa(len(tiers)) + "\n"); !bytes.Contains(metrics, want) {
		t.Errorf("/metrics lacks %q", want)
	}
	if bytes.Contains(metrics, []byte("prairie_optimize_total")) {
		t.Error("a refused request ran the optimizer")
	}
}
