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
// tests, so a test can check what a user sees: exit code and output.
const runMainEnv = "ROOFLINE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args and returns its exit code, stdout
// and stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("roofline %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// A bad flag value is a usage error: exit 2 with a message naming the
// flag. A runtime panic also exits 2, so the test also rules one out.
func TestBadFlagValuesAreUsageErrors(t *testing.T) {
	cases := []struct {
		flag string
		args []string
	}{
		{"-host-n", []string{"-host", "-host-n", "-3"}},
		{"-nodes", []string{"-nodes", "-2"}},
		{"-scale", []string{"-scale", "0"}},
		{"-scale", []string{"-scale", "7"}},
		{"-points", []string{"-points", "1"}},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(t, tc.args...)
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

// -host times the four calibration kernels and prints one row each.
func TestHostCalibrationRows(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-host", "-host-n", "32")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	_, rows, ok := strings.Cut(stdout, "host calibration (n=32")
	if !ok {
		t.Fatalf("no host calibration section:\n%s", stdout)
	}
	for _, name := range []string{"gemm", "triad", "dot", "jacobi"} {
		if !strings.Contains(rows, "\n  "+name+" ") {
			t.Errorf("no %s row in:\n%s", name, rows)
		}
	}
}
