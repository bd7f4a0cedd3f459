package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"clustersoc/internal/trace"
)

// runMainEnv makes the test binary run the command instead of the
// tests, so a test can check what a user sees: exit code and stderr.
const runMainEnv = "REPLAY_TEST_RUN_MAIN"

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
		t.Fatalf("replay %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// A malformed trace file is bad input: the command reports it and exits
// 1. A runtime panic exits 2, so the test also rules one out.
func TestMalformedTraceIsAnError(t *testing.T) {
	cases := []struct {
		name, want string
		tr         *trace.Trace
	}{
		{"send to a rank the trace does not have", "peer 7 out of range", &trace.Trace{Runtime: 1, Ranks: []*trace.RankTrace{
			{Rank: 0, Ops: []trace.Op{{Kind: trace.OpSend, Peer: 7, Tag: 1, Bytes: 8}}},
			{Rank: 1, Node: 1},
		}}},
		{"receive no send matches", "deadlock", &trace.Trace{Runtime: 1, Ranks: []*trace.RankTrace{
			{Rank: 0, Ops: []trace.Op{{Kind: trace.OpRecv, Peer: 1, Tag: 1}}},
			{Rank: 1, Node: 1},
		}}},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "run.trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.tr.Write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		code, stderr := runCLI(t, "-in", path)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1 (stderr %q)", tc.name, code, stderr)
		}
		if !strings.HasPrefix(stderr, "replay: ") || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q does not name the problem (%q)", tc.name, stderr, tc.want)
		}
		if strings.Contains(stderr, "panic:") {
			t.Errorf("%s: panicked:\n%s", tc.name, stderr)
		}
	}
}
