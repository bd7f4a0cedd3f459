package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"clustersoc/internal/critpath"
)

// runMainEnv makes the test binary run the command instead of the
// tests, so a test can check what a user sees: exit code and output.
const runMainEnv = "WHATIF_TEST_RUN_MAIN"

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
		t.Fatalf("whatif %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// sidecar writes a one-report sidecar and returns its path.
func sidecar(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "a.critpath.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := &critpath.Report{
		Scenario:    "cg on x",
		Fingerprint: "x",
		Makespan:    1.5,
		Blame:       map[string]float64{"cpu-compute": 1.0, "nic-wire": 0.5},
		Path:        []critpath.Segment{{Entity: "rank0", Component: "cpu-compute", Start: 0, End: 1.5}},
	}
	if err := critpath.WriteReports(f, []*critpath.Report{r}); err != nil {
		t.Fatal(err)
	}
	return path
}

// A bad flag value or argument count is a usage error: exit 2 with a
// message naming the flag. A runtime panic also exits 2, so the test
// also rules one out.
func TestBadFlagValuesAreUsageErrors(t *testing.T) {
	path := sidecar(t)
	cases := []struct {
		flag string
		args []string
	}{
		{"-slack", []string{"-slack", "-1", path}},
		{"-diff", []string{"-diff", path}},
	}
	for _, tc := range cases {
		code, stdout, stderr := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stdout %q, stderr %q)", tc.args, code, stdout, stderr)
		}
		if !strings.Contains(stderr, tc.flag) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr, tc.flag)
		}
		if strings.Contains(stderr, "panic:") {
			t.Errorf("%v: panicked:\n%s", tc.args, stderr)
		}
	}
}

// A sidecar prints its blame table; -slack 0 (off) is valid.
func TestSidecarPrintsBlame(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-slack", "0", sidecar(t))
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "cpu-compute") {
		t.Fatalf("no blame row for cpu-compute in:\n%s", stdout)
	}
}
