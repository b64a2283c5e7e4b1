package main

import (
	"bytes"
	"os"
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
		for _, want := range []string{`"` + name + `"`, "table5, fig10, fig11, fig12, fig13, fig14, rules, relopt, star, rulecheck, all"} {
			if !strings.Contains(stderr, want) {
				t.Errorf("-experiment %s: stderr lacks %q:\n%s", name, want, stderr)
			}
		}
	}
}

// TestRemovedFlagsUnknown: the flags that only fed the removed
// experiments, -workers of the removed batch API, and the span-trace
// sinks of the removed search trace are usage errors, not silently
// accepted.
func TestRemovedFlagsUnknown(t *testing.T) {
	for _, flag := range []string{"-cache", "-cache-size", "-draws", "-rows", "-workers", "-trace-out", "-trace-jsonl"} {
		code, stdout, stderr := runCLI(flag, "1", "-experiment", "rules")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("%s: status %d, stdout %q, stderr:\n%s", flag, code, stdout, stderr)
		}
	}
}

// checkCSVGolden runs one experiment with -csv and compares its output
// byte for byte with testdata/<experiment>.csv.golden.
func checkCSVGolden(t *testing.T, experiment string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + experiment + ".csv.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI("-experiment", experiment, "-csv")
	if code != 0 || stderr != "" {
		t.Fatalf("status %d, stderr %q", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("-experiment %s -csv:\n%s--- want\n%s", experiment, stdout, want)
	}
}

// TestRulesCSVGolden is the command's smoke test: the §4.2 rule-count
// table is deterministic, so its CSV is pinned byte for byte.
func TestRulesCSVGolden(t *testing.T) { checkCSVGolden(t, "rules") }

// TestTable5CSVGolden pins Table 5 — the distinct rules matched and fired
// per query — byte for byte: the counts are what the explorer's closure
// exercises, whatever order it explores in.
func TestTable5CSVGolden(t *testing.T) { checkCSVGolden(t, "table5") }
