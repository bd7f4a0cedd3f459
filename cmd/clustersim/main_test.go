package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run the command instead of the
// tests, so a test can check what a user sees: exit code and stderr.
const runMainEnv = "CLUSTERSIM_TEST_RUN_MAIN"

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
		t.Fatalf("clustersim %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// A bad flag value is a usage error: exit 2 with a message naming the
// flag. A runtime panic also exits 2, so the test also rules one out.
func TestBadFlagValuesAreUsageErrors(t *testing.T) {
	cases := []struct {
		flag string
		args []string
	}{
		{"-nodes", []string{"-nodes", "0"}},
		{"-nodes", []string{"-system", "gtx980", "-nodes", "-2"}},
		{"-net", []string{"-net", "1G"}},
		{"-scale", []string{"-scale", "0"}},
		{"-scale", []string{"-scale", "5"}},
	}
	for _, tc := range cases {
		// tc.args come last, so a -scale among them wins.
		code, stderr := runCLI(t, append([]string{"-workload", "hpl", "-scale", "0.01"}, tc.args...)...)
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

// A run with and without -store is the same scenario, so it writes the
// same critical-path sidecar, fingerprint included.
func TestCritPathSidecarIndependentOfStore(t *testing.T) {
	t.Setenv("CLUSTERSOC_STORE", "")
	dir := t.TempDir()
	sidecar := func(name string, extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{"-workload", "cg", "-nodes", "4", "-scale", "0.02", "-critpath", path}, extra...)
		if code, stderr := runCLI(t, args...); code != 0 {
			t.Fatalf("clustersim %v: exit %d\n%s", args, code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain := sidecar("plain.json")
	stored := sidecar("stored.json", "-store", filepath.Join(dir, "store"))
	if !bytes.Equal(plain, stored) {
		t.Fatalf("sidecar differs with -store:\nwithout: %s\nwith:    %s", plain, stored)
	}
	if !bytes.Contains(plain, []byte(`"fingerprint"`)) {
		t.Fatalf("sidecar carries no scenario fingerprint: %s", plain)
	}
}
