package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv makes the test binary run the command instead of the
// tests, so a test can check what a user sees: exit code and output.
const runMainEnv = "SIMD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args and returns its exit code and
// stderr. A command still running after 10 s is killed, which reads as
// exit -1: a bad flag value that reached the server would serve forever.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("simd %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// A bad flag value is a usage error: exit 2 with a message naming the
// flag, before the server listens. A runtime panic also exits 2, so the
// test also rules one out.
func TestBadFlagValuesAreUsageErrors(t *testing.T) {
	cases := []struct {
		flag string
		args []string
	}{
		{"-rate", []string{"-rate", "NaN"}},
		{"-rate", []string{"-rate", "+Inf"}},
		{"-rate", []string{"-rate", "-1"}},
		{"-max-pending", []string{"-max-pending", "0"}},
		{"-max-batch", []string{"-max-batch", "-1"}}, // no such flag any more
		{"-burst", []string{"-burst", "-1"}},
		{"-drain-timeout", []string{"-drain-timeout", "-1s"}},
	}
	for _, tc := range cases {
		code, stderr := runCLI(t, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.flag) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr, tc.flag)
		}
		if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "serving on") {
			t.Errorf("%v: got past flag checking:\n%s", tc.args, stderr)
		}
	}
}
