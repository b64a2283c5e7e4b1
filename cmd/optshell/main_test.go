package main

import (
	"os"
	"os/exec"
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
