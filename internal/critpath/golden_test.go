package critpath_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"clustersoc/internal/core"
	"clustersoc/internal/critpath"
	"clustersoc/internal/faults"
	"clustersoc/internal/runner"
)

// TestReportsMatchGolden pins the sidecar bytes of three recorded runs on
// 4 TX1 nodes at 10 GbE, chosen so that every kind of recorded value
// reaches a report:
//   - cg: intra-node messages (four ranks to a node) and blocked receives;
//   - alexnet: NFS fetches from the file server and async kernels;
//   - hpl under a seeded fault plan: retransmitted messages, checkpoint and
//     crash settlement, straggler stretch, and gate waits on async kernels.
//
// Each case first checks that its run exercised what it is here for, so a
// later change to a workload cannot quietly drop a path from the pin.
// Refresh deliberately with
// UPDATE_GOLDEN=1 go test ./internal/critpath -run TestReportsMatchGolden
// after a change that intentionally alters the analysis.
func TestReportsMatchGolden(t *testing.T) {
	hpl := scenario(t, "hpl", 4, core.TenGigE, 0.04, false)
	hpl.Cluster.Faults = &faults.Plan{
		Seed:               7,
		StragglerFraction:  0.5,
		StragglerFactor:    1.5,
		MessageLossProb:    0.05,
		CrashMTBF:          8,
		RestartSeconds:     0.15,
		CheckpointSeconds:  0.03,
		CheckpointInterval: 1,
	}
	cases := []struct {
		s     runner.Scenario
		check func(t *testing.T, res runner.Result)
	}{
		{scenario(t, "cg", 4, core.TenGigE, 0.02, false), func(t *testing.T, res runner.Result) {
			rs := res.CritPath.RankSeconds
			if rs["mem-path"] <= 0 || rs["mpi-blocked"] <= 0 {
				t.Errorf("cg records no intra-node message or no blocked receive: %v", rs)
			}
		}},
		{scenario(t, "alexnet", 4, core.TenGigE, 0.02, false), func(t *testing.T, res runner.Result) {
			server := 0
			for _, l := range res.CritPath.Links {
				if l.SrcNode == 4 {
					server += l.Messages
				}
			}
			if server == 0 || res.CritPath.Entities <= 4 {
				t.Errorf("alexnet records %d fetches and %d timelines; want fetches and async-kernel helpers",
					server, res.CritPath.Entities)
			}
		}},
		{hpl, func(t *testing.T, res runner.Result) {
			f := res.Faults
			if f == nil || f.LostMessages == 0 || f.Crashes == 0 || f.Checkpoints == 0 || f.StragglerNodes == 0 {
				t.Errorf("hpl's fault plan injected too little: %+v", f)
			}
			if res.CritPath.Entities <= 4 || res.CritPath.RankSeconds["fault"] <= 0 {
				t.Errorf("hpl records %d timelines and %g s of fault settlement; want helpers and settlement",
					res.CritPath.Entities, res.CritPath.RankSeconds["fault"])
			}
		}},
	}
	var reports []*critpath.Report
	for _, tc := range cases {
		res, err := runner.Execute(tc.s, runner.Observers{CritPath: true})
		if err != nil {
			t.Fatal(err)
		}
		tc.check(t, res)
		reports = append(reports, res.CritPath)
	}
	var got bytes.Buffer
	if err := critpath.WriteReports(&got, reports); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "reports.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, got.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl := bytes.Split(got.Bytes(), []byte("\n"))
		wl := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("reports diverge from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("reports length changed: got %d bytes, golden %d", got.Len(), len(want))
	}
}
