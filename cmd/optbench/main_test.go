package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRemovedExperimentsExit2: the five experiments the repository
// benchmark superseded are refused like any unknown name — status 2, the
// valid names on stderr, nothing on stdout.
func TestRemovedExperimentsExit2(t *testing.T) {
	for _, name := range []string{"tier", "exec", "serve", "cluster", "repeat", "nonsense"} {
		code, stdout, stderr := runCLI("-experiment", name)
		if code != 2 || stdout != "" {
			t.Errorf("-experiment %s: status %d, stdout %q; want 2 and nothing", name, code, stdout)
		}
		for _, want := range []string{`"` + name + `"`, "table5, fig10, fig11, fig12, fig13, fig14, rules, relopt, star, rulecheck, plandump, all"} {
			if !strings.Contains(stderr, want) {
				t.Errorf("-experiment %s: stderr lacks %q:\n%s", name, want, stderr)
			}
		}
	}
}

// TestRemovedFlagsUnknown: the flags that only fed the removed
// experiments, -workers of the removed batch API, the span-trace sinks of
// the removed search trace, -maxexprs' alias and the -degrade switch of
// the removed hard cap, and the sweep observer's -observe and -httpaddr
// are usage errors, not silently accepted.
func TestRemovedFlagsUnknown(t *testing.T) {
	for _, flag := range []string{"-cache", "-cache-size", "-draws", "-rows", "-workers", "-trace-out", "-trace-jsonl", "-max-exprs", "-degrade", "-observe", "-httpaddr"} {
		code, stdout, stderr := runCLI(flag, "1", "-experiment", "rules")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("%s: status %d, stdout %q, stderr:\n%s", flag, code, stdout, stderr)
		}
	}
}

// checkCSVGolden runs optbench with args and -csv and compares its output
// byte for byte with testdata/<golden>.csv.golden.
func checkCSVGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + golden + ".csv.golden")
	if err != nil {
		t.Fatal(err)
	}
	args = append(args, "-csv")
	code, stdout, stderr := runCLI(args...)
	if code != 0 || stderr != "" {
		t.Fatalf("status %d, stderr %q", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("optbench %s:\n%s--- want\n%s", strings.Join(args, " "), stdout, want)
	}
}

// TestRulesCSVGolden is the command's smoke test: the §4.2 rule-count
// table is deterministic, so its CSV is pinned byte for byte.
func TestRulesCSVGolden(t *testing.T) { checkCSVGolden(t, "rules", "-experiment", "rules") }

// TestTable5CSVGolden pins Table 5 — the distinct rules matched and fired
// per query — byte for byte: the counts are what the explorer's closure
// exercises, whatever order it explores in.
func TestTable5CSVGolden(t *testing.T) { checkCSVGolden(t, "table5", "-experiment", "table5") }

// TestPlanDumpCSVGolden holds the answers of every program of the
// benchmark's workload pools between commits: plan, wire plan and memo
// digests, costs and search counters. A change that alters a search
// must regenerate this file and say so in its diff.
func TestPlanDumpCSVGolden(t *testing.T) {
	checkCSVGolden(t, "plandump", "-experiment", "plandump", "-dsl", "../../examples/dslrules/rules.prairie")
}

// TestFig14CSVGolden pins Figure 14's class counts to 4 joins and, under
// -maxexprs 1000, the cells where a series ends: the first point that
// reaches the expression budget reads 'exhausted' and the cells after it
// '-'.
func TestFig14CSVGolden(t *testing.T) {
	checkCSVGolden(t, "fig14", "-experiment", "fig14", "-maxclasses", "5")
	checkCSVGolden(t, "fig14_maxexprs", "-experiment", "fig14", "-maxclasses", "5", "-maxexprs", "1000")
}

// TestJSONIsOnlyAnEncoding: -json carries the table -csv prints and no
// other field.
func TestJSONIsOnlyAnEncoding(t *testing.T) {
	code, stdout, stderr := runCLI("-experiment", "table5", "-json")
	if code != 0 || stderr != "" {
		t.Fatalf("status %d, stderr %q", code, stderr)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(stdout), &fields); err != nil {
		t.Fatalf("decode: %v\n%s", err, stdout)
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"Header", "Notes", "Rows", "Title"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("keys = %v, want %v", keys, want)
	}
	var got struct {
		Header []string
		Rows   [][]string
	}
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/table5.csv.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(golden), "\n") // the title line
	want, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Header, want[0]) || !reflect.DeepEqual(got.Rows, want[1:]) {
		t.Errorf("-json table differs from table5.csv.golden:\nheader %v\nrows %v", got.Header, got.Rows)
	}
}
