package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run the command instead of the
// tests, so a test can check what a user sees: exit code and stderr.
const runMainEnv = "SIMLOAD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args and returns its exit code and
// stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("simload %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// nowhere is a loopback address nothing listens on.
const nowhere = "http://127.0.0.1:1"

// A bad flag value is a usage error: exit 2 with a message naming the
// flag. A runtime panic also exits 2, so the test also rules one out.
func TestBadFlagValuesAreUsageErrors(t *testing.T) {
	cases := []struct {
		flag string
		args []string
	}{
		{"-clients", []string{"-clients", "0"}},
		{"-clients", []string{"-clients", "-3"}},
		{"-batch", []string{"-batch", "-1"}},
		{"-batch", []string{"-batch", "0"}},
		{"-duration", []string{"-duration", "0s"}},
		{"-duration", []string{"-duration", "-1s"}},
	}
	for _, tc := range cases {
		code, stderr := runCLI(t, append([]string{"-addr", nowhere}, tc.args...)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.flag) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr, tc.flag)
		}
		if strings.Contains(stderr, "panic:") {
			t.Errorf("%v: panicked:\n%s", tc.args, stderr)
		}
	}
}

// A run in which no response line arrived observed nothing, so it fails
// rather than reporting "0 simulated" as if a warm path had been proven.
func TestNoResponseIsAnError(t *testing.T) {
	code, stderr := runCLI(t, "-addr", nowhere, "-duration", "1ns")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if strings.Contains(stderr, "panic:") {
		t.Fatalf("panicked:\n%s", stderr)
	}
}
