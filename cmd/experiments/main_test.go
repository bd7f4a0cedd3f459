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
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

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
		t.Fatalf("experiments %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// An out-of-range -scale is a usage error: exit 2 with a message naming
// the flag, not a silent regeneration at the default scale.
func TestOutOfRangeScaleIsAUsageError(t *testing.T) {
	code, stderr := runCLI(t, "-only", "tab1", "-scale", "7")
	if code != 2 {
		t.Errorf("exit %d, want 2 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "-scale") {
		t.Errorf("stderr %q does not name -scale", stderr)
	}
	if strings.Contains(stderr, "panic:") {
		t.Errorf("panicked:\n%s", stderr)
	}
}
