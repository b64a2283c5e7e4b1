package main

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with OPTSHELL_TEST_MAIN set, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("OPTSHELL_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRemovedStrategyFlag: -strategy went with the bottom-up search it
// selected; naming it is a usage error, not a silently ignored option.
func TestRemovedStrategyFlag(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-strategy", "bottomup")
	cmd.Env = append(os.Environ(), "OPTSHELL_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -strategy") {
		t.Errorf("optshell -strategy bottomup: err %v, output:\n%s", err, out)
	}
}

// TestUnknownExprFamily: -expr takes qgen's family names; any other is
// a usage error that exits 2 and names the bad value.
func TestUnknownExprFamily(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-expr", "E9")
	cmd.Env = append(os.Environ(), "OPTSHELL_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 ||
		!strings.Contains(string(out), `unknown expression family "E9"`) {
		t.Errorf("optshell -expr E9: err %v, output:\n%s", err, out)
	}
}

// TestMemoListsLiveGroups: :memo prints each live group once, merged ids
// never. E3 over four classes merges four groups, so its live ids run
// past the group count.
func TestMemoListsLiveGroups(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-expr", "E3", "-n", "4", ":memo")
	cmd.Env = append(os.Environ(), "OPTSHELL_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("optshell :memo: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`(?m)^search: groups=(\d+) exprs=\d+ merges=(\d+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no stats line in:\n%s", out)
	}
	groups, _ := strconv.Atoi(string(m[1]))
	if merges, _ := strconv.Atoi(string(m[2])); merges == 0 {
		t.Fatal("the query merged no groups; it no longer tests merged ids")
	}
	if n := len(regexp.MustCompile(`(?m)^group \d+`).FindAll(out, -1)); n != groups {
		t.Errorf(":memo printed %d groups, the search has %d", n, groups)
	}
	if strings.Contains(string(out), "merged into") {
		t.Error(":memo printed a merged group")
	}
}

// TestMemoHoldsTheDegradedPlan: a search degraded by its budget plans on
// its one memo, so :memo lists the returned plan as a group's winner.
func TestMemoHoldsTheDegradedPlan(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-expr", "E4", "-n", "4", "-timeout", "1ns", ":memo")
	cmd.Env = append(os.Environ(), "OPTSHELL_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("optshell -timeout 1ns :memo: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "plan degraded via memo-best") {
		t.Fatalf("a 1ns budget did not degrade the search by salvage:\n%s", out)
	}
	m := regexp.MustCompile(`(?m)^winning plan \(cost ([0-9.]+)\):\n  (.+)$`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no winning plan in:\n%s", out)
	}
	if winner := fmt.Sprintf("= %s (cost %s)", m[2], m[1]); !strings.Contains(string(out), winner) {
		t.Errorf(":memo lists no winner %q:\n%s", winner, out)
	}
}
