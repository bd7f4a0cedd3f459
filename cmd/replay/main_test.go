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
		code, stderr := runCLI(t, "-in", writeTrace(t, tc.tr))
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

// writeTrace writes tr to a fresh file and returns its path.
func writeTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// A network flag the replay cannot honour is a usage error naming the
// flag, not a replay on some other network: a negative bus count, a
// bandwidth that is not finite and positive, a latency that is negative
// or not finite, and a latency without the custom bandwidth it belongs
// to.
func TestBadNetworkFlagsAreUsageErrors(t *testing.T) {
	path := writeTrace(t, &trace.Trace{Runtime: 1, Ranks: []*trace.RankTrace{
		{Rank: 0, Ops: []trace.Op{{Kind: trace.OpSend, Peer: 1, Tag: 1, Bytes: 1000, End: 0.5}}},
		{Rank: 1, Node: 1, Ops: []trace.Op{{Kind: trace.OpRecv, Peer: 0, Tag: 1, End: 1}}},
	}})
	if code, stderr := runCLI(t, "-in", path, "-bw", "1e9", "-lat", "1e-6", "-buses", "2"); code != 0 {
		t.Fatalf("valid custom network: exit %d (stderr %q)", code, stderr)
	}
	cases := []struct {
		flag string
		args []string
	}{
		{"-buses", []string{"-buses", "-3"}},
		{"-bw", []string{"-bw", "-5"}},
		{"-bw", []string{"-bw", "0"}},
		{"-bw", []string{"-bw", "NaN"}},
		{"-bw", []string{"-bw", "+Inf"}},
		{"-lat", []string{"-bw", "1e9", "-lat", "-1"}},
		{"-lat", []string{"-bw", "1e9", "-lat", "NaN"}},
		{"-lat", []string{"-bw", "1e9", "-lat", "Inf"}},
		{"-lat", []string{"-lat", "5e-6"}},
	}
	for _, tc := range cases {
		code, stderr := runCLI(t, append([]string{"-in", path}, tc.args...)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.HasPrefix(stderr, "replay: "+tc.flag+" ") {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr, tc.flag)
		}
	}
}
