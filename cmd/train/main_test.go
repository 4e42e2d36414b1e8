package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestValidateIsNotAFlag runs the command in a child process. train runs
// no placement flow, so -validate is an undefined flag and a usage error,
// while the shared flags train does read still parse.
func TestValidateIsNotAFlag(t *testing.T) {
	if args := os.Getenv("TRAIN_TEST_ARGS"); args != "" {
		os.Args = append([]string{"train"}, strings.Fields(args)...)
		main()
		return
	}
	run := func(args string) string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestValidateIsNotAFlag$")
		cmd.Env = append(os.Environ(), "TRAIN_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		// No netlist to train on: every run ends in usage, exit status 2.
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("train %s: %v, want exit status 2\n%s", args, err, out)
		}
		return string(out)
	}
	if out := run("-validate off"); !strings.Contains(out, "flag provided but not defined: -validate") {
		t.Fatalf("train accepted -validate:\n%s", out)
	}
	if out := run("-seed 3 -stages -cpuprofile= -memprofile="); strings.Contains(out, "not defined") {
		t.Fatalf("train rejected a shared flag:\n%s", out)
	}
}
