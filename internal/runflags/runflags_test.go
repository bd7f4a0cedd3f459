package runflags

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"clustersoc/internal/cluster"
	"clustersoc/internal/critpath"
	"clustersoc/internal/network"
	"clustersoc/internal/obs"
	"clustersoc/internal/runner"
	"clustersoc/internal/workloads"
)

// declared returns the name=default pairs a mount declares, sorted.
func declared(m Mount) []string {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, m)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	sort.Strings(got)
	return got
}

// TestMountsDeclareTheirFlags pins what each front end's mount declares,
// names and defaults, with -store defaulting to $CLUSTERSOC_STORE.
func TestMountsDeclareTheirFlags(t *testing.T) {
	t.Setenv("CLUSTERSOC_STORE", "/some/store")
	cases := []struct {
		name  string
		mount Mount
		want  []string
	}{
		{"clustersim", Store, []string{"store=/some/store"}},
		{"simd", Store | Parallel, []string{"parallel=0", "store=/some/store"}},
		{"experiments and scalability", All, []string{
			"check=false", "critpath=false", "parallel=0", "profile=false", "store=/some/store"}},
	}
	for _, tc := range cases {
		if got := declared(tc.mount); strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s: declares %v, want %v", tc.name, got, tc.want)
		}
	}
	t.Setenv("CLUSTERSOC_STORE", "")
	if got := declared(Store); len(got) != 1 || got[0] != "store=" {
		t.Errorf("without CLUSTERSOC_STORE, -store declares %v, want an empty default", got)
	}
}

// TestParsedFlagsLand checks that parsed values reach Flags, and that a
// front end without -parallel gets a one-worker runner.
func TestParsedFlagsLand(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, All)
	if err := fs.Parse([]string{"-parallel", "3", "-check", "-critpath"}); err != nil {
		t.Fatal(err)
	}
	want := runner.Observers{Check: true, CritPath: true}
	if f.Parallel != 3 || f.Observers != want {
		t.Fatalf("parsed %+v, want parallel 3 and observers %+v", f, want)
	}
	r, err := Register(flag.NewFlagSet("one", flag.ContinueOnError), Store).Runner()
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers() != 1 {
		t.Fatalf("runner without -parallel has %d workers, want 1", r.Workers())
	}
}

// TestRunnerReportsOpenStoreError: an unusable store directory fails the
// build with runner.OpenStore's error instead of running storeless.
func TestRunnerReportsOpenStoreError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "store")
	_, want := runner.OpenStore(dir)
	if want == nil {
		t.Fatal("setup: a directory under a regular file opened")
	}
	r, err := (&Flags{Store: dir, Parallel: 1}).Runner()
	if r != nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("Runner() = %v, %v; want nil, %v", r, err, want)
	}
}

// TestReportLinesMatchWhatCIGreps pins the accounting lines' format
// against the patterns the CI workflow greps on stderr.
func TestReportLinesMatchWhatCIGreps(t *testing.T) {
	dir := t.TempDir()
	w, err := workloads.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.TX1Cluster(2, network.TenGigE)
	cfg.RanksPerNode = w.RanksPerNode()
	sc := runner.Scenario{Cluster: cfg, Workload: "cg", Config: workloads.Config{Scale: 0.01}}
	report := func() string {
		r, err := (&Flags{Store: dir, Parallel: 1}).Runner()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(sc); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		Report(&buf, r)
		return buf.String()
	}
	cold, warm := report(), report()

	simulated := regexp.MustCompile(`(?m)^run-plane: .* submitted, ([0-9]*) simulated`)
	hits := regexp.MustCompile(`(?m)^store: ([0-9]*) hits`)
	if m := simulated.FindStringSubmatch(cold); m == nil || m[1] != "1" {
		t.Errorf("cold run-plane line does not report 1 simulated:\n%s", cold)
	}
	if !regexp.MustCompile(`run-plane: .* scenarios submitted, 0 simulated`).MatchString(warm) {
		t.Errorf("warm run-plane line does not match CI's 0-simulated grep:\n%s", warm)
	}
	if m := hits.FindStringSubmatch(warm); m == nil || m[1] != "1" {
		t.Errorf("warm store line does not report 1 hit:\n%s", warm)
	}
	wantStore := fmt.Sprintf("store: 1 hits, 0 misses, 0 writes, 0 corrupt (%s, schema %d)\n", dir, runner.StoreSchemaVersion)
	if !strings.HasSuffix(warm, wantStore) {
		t.Errorf("warm store line:\n%s\nwant suffix %q", warm, wantStore)
	}

	var buf bytes.Buffer
	Report(&buf, runner.New(1))
	if strings.Contains(buf.String(), "store:") {
		t.Errorf("a storeless runner printed a store line:\n%s", buf.String())
	}
}

// TestWriteSidecarsWritesWhatTheFlagsPromise: -profile and -critpath
// each get their sidecar, in the bytes obs.WriteProfiles and
// critpath.WriteReports give, named on w; with neither flag nothing is
// written.
func TestWriteSidecarsWritesWhatTheFlagsPromise(t *testing.T) {
	dir := t.TempDir()
	w, err := workloads.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.TX1Cluster(2, network.TenGigE)
	cfg.RanksPerNode = w.RanksPerNode()
	sc := runner.Scenario{Cluster: cfg, Workload: "cg", Config: workloads.Config{Scale: 0.01}}
	f := &Flags{Parallel: 1, Observers: runner.Observers{Profile: true, CritPath: true}}
	r, err := f.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sc); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "run")
	var out bytes.Buffer
	if err := f.WriteSidecars(&out, r, base); err != nil {
		t.Fatal(err)
	}
	var profiles, reports bytes.Buffer
	if err := obs.WriteProfiles(&profiles, r.Profiles()); err != nil {
		t.Fatal(err)
	}
	if err := critpath.WriteReports(&reports, r.Reports()); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{base + ".profile.json": profiles.Bytes(), base + ".critpath.json": reports.Bytes()} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from its writer's bytes", path)
		}
		if !strings.Contains(out.String(), "wrote 1 ") || !strings.Contains(out.String(), path) {
			t.Errorf("output %q does not name %s", out.String(), path)
		}
	}

	none := filepath.Join(dir, "none")
	if err := (&Flags{}).WriteSidecars(&out, r, none); err != nil {
		t.Fatal(err)
	}
	if matches, _ := filepath.Glob(none + "*"); len(matches) != 0 {
		t.Errorf("without -profile or -critpath, WriteSidecars wrote %v", matches)
	}
}
