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
const runMainEnv = "NETBENCH_TEST_RUN_MAIN"

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
		t.Fatalf("netbench %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// A ping-pong needs at least one round: fewer is a usage error (exit 2,
// naming the flag), not a NaN or negative RTT. A runtime panic also exits
// 2, so the test also rules one out.
func TestBadRoundsIsAUsageError(t *testing.T) {
	for _, rounds := range []string{"0", "-5"} {
		code, _, stderr := runCLI(t, "-rounds", rounds)
		if code != 2 {
			t.Errorf("-rounds %s: exit %d, want 2 (stderr %q)", rounds, code, stderr)
		}
		if !strings.Contains(stderr, "-rounds") {
			t.Errorf("-rounds %s: stderr %q does not name -rounds", rounds, stderr)
		}
		if strings.Contains(stderr, "panic:") {
			t.Errorf("-rounds %s: panicked:\n%s", rounds, stderr)
		}
	}
}

func TestValidRoundsRuns(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-rounds", "10")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if strings.Count(stdout, "ping-pong RTT") != 2 || strings.Contains(stdout, "NaN") {
		t.Fatalf("want one finite ping-pong row per NIC:\n%s", stdout)
	}
}
