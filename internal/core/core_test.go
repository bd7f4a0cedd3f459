package core

import (
	"reflect"
	"strings"
	"testing"

	"clustersoc/internal/cluster"
	"clustersoc/internal/network"
	"clustersoc/internal/roofline"
	"clustersoc/internal/workloads"
)

func TestRunByName(t *testing.T) {
	res, err := Run(TX1(2, TenGigE), "jacobi", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 || res.Throughput <= 0 {
		t.Fatal("empty result")
	}
	if _, err := Run(TX1(2, TenGigE), "nope", 0.02); err == nil {
		t.Fatal("unknown workload should error")
	}
	// GPU workloads refuse CPU-only systems.
	if _, err := Run(Cavium(), "jacobi", 0.02); err == nil {
		t.Fatal("jacobi on the Cavium should error")
	}
	// NPB on the Cavium works.
	if _, err := Run(Cavium(), "ep", 0.02); err != nil {
		t.Fatal(err)
	}
}

// The AI workloads fetch every image batch from the NFS file server, so
// a cluster without one is refused up front with an error naming it,
// instead of panicking inside the simulation.
func TestNFSWorkloadsNeedFileServer(t *testing.T) {
	bare := cluster.TX1Cluster(2, network.TenGigE)
	for _, w := range []string{"alexnet", "googlenet"} {
		if _, err := Run(bare, w, 0.01); err == nil || !strings.Contains(err.Error(), "file server") {
			t.Errorf("Run(%s) without a file server: err = %v, want one naming the file server", w, err)
		}
		if _, err := NewScenario(bare, w, workloads.Config{Scale: 0.01}); err == nil {
			t.Errorf("NewScenario(%s) accepted a cluster without a file server", w)
		}
		if _, err := Run(TX1(2, TenGigE), w, 0.01); err != nil {
			t.Errorf("Run(%s) with the file server: %v", w, err)
		}
	}
	// A GPU workload that reads nothing over NFS needs no file server.
	if _, err := Run(bare, "jacobi", 0.01); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkChoiceMatters(t *testing.T) {
	slow, err := Run(TX1(8, GigE), "ft", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(TX1(8, TenGigE), "ft", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Runtime >= slow.Runtime {
		t.Fatal("10GbE should beat 1GbE on ft")
	}
}

// Only the exact front-end spellings parse; near misses such as "1G"
// must not fall through to either network.
func TestParseNetwork(t *testing.T) {
	cases := []struct {
		in      string
		want    NetworkChoice
		wantErr bool
	}{
		{"1g", GigE, false},
		{"10g", TenGigE, false},
		{"1G", 0, true},
		{"10gbe", 0, true},
		{"", 0, true},
		{"100g", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseNetwork(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseNetwork(%q) = %v, want an error", tc.in, got)
			} else if !strings.Contains(err.Error(), "1g or 10g") {
				t.Errorf("ParseNetwork(%q) error %q does not list the accepted values", tc.in, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseNetwork(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestRooflineOf(t *testing.T) {
	cfg := TX1(8, TenGigE)
	res, err := Run(cfg, "jacobi", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	a := RooflineOf(cfg, res, false)
	if a.Limit != roofline.LimitOperational {
		t.Errorf("jacobi limit = %s, want operational", a.Limit)
	}
	if a.PercentOfPeak <= 0 || a.PercentOfPeak > 100.5 {
		t.Errorf("%%peak = %v", a.PercentOfPeak)
	}
	m := RooflineModel(cfg, true)
	if m.PeakFlops <= RooflineModel(cfg, false).PeakFlops {
		t.Error("FP32 roof should exceed FP64")
	}
}

func TestScalability(t *testing.T) {
	res, err := Scalability(TX1(8, TenGigE), "tealeaf3d", []int{1, 2, 4}, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Speedups) != 3 || res.Speedups[0] != 1 {
		t.Fatalf("speedups %v", res.Speedups)
	}
	if res.Speedups[2] <= res.Speedups[1] {
		t.Fatal("speedup should grow to 4 nodes")
	}
	e := res.Efficiency
	if e.Eta <= 0 || e.Eta > 1 {
		t.Fatalf("eta = %v", e.Eta)
	}
	if res.IdealNetworkGain < 1 || res.IdealLoadBalanceGain < 1 {
		t.Fatalf("replay gains below 1: %v %v", res.IdealNetworkGain, res.IdealLoadBalanceGain)
	}
	if _, err := Scalability(TX1(8, TenGigE), "nope", []int{1, 2}, 0.03); err == nil {
		t.Fatal("unknown workload should error")
	}
}

// Scalability and ScalabilityPoint validate every point the way Run
// does: an NFS workload on a cluster without a file server, or a point
// with no nodes, is an error, not a panic on a runner worker.
func TestScalabilityRejectsInvalidPoints(t *testing.T) {
	bare := cluster.TX1Cluster(2, network.TenGigE)
	cases := []struct {
		workload string
		sizes    []int
		want     string
	}{
		{"alexnet", []int{1, 2}, "file server"},
		{"cg", []int{0, 2}, "need at least one"},
	}
	for _, tc := range cases {
		if _, err := Scalability(bare, tc.workload, tc.sizes, 0.01); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Scalability(%s, %v): err = %v, want one containing %q", tc.workload, tc.sizes, err, tc.want)
		}
		if _, err := NewSession(1).ScalabilityPoint(bare, tc.workload, tc.sizes[0], 0.01); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ScalabilityPoint(%s, %d): err = %v, want one containing %q", tc.workload, tc.sizes[0], err, tc.want)
		}
	}
}

func TestWorkloadsList(t *testing.T) {
	names := Workloads()
	if len(names) != 15 {
		t.Fatalf("%d workloads, want 15 (7 GPU + 8 NPB)", len(names))
	}
	if names[0] != "hpl" {
		t.Fatalf("first workload %s", names[0])
	}
}

func TestSessionMemoizesAndMatchesRun(t *testing.T) {
	s := NewSession(2)
	cfg := TX1(2, TenGigE)
	first, err := s.Run(cfg, "jacobi", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Run(cfg, "jacobi", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("memoized rerun returned a different result")
	}
	direct, err := Run(cfg, "jacobi", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, direct) {
		t.Error("session result differs from the one-shot core.Run")
	}
	st := s.Stats()
	if st.Submitted != 2 || st.Hits != 1 || st.Simulated != 1 {
		t.Errorf("stats = %+v, want one simulation and one hit", st)
	}
	// Validation still applies on the session path.
	if _, err := s.Run(Cavium(), "jacobi", 0.02); err == nil {
		t.Error("jacobi on the Cavium should error through a session")
	}
	if _, err := s.Run(cfg, "nope", 0.02); err == nil {
		t.Error("unknown workload should error through a session")
	}
}

func TestSessionScalabilityMatchesSequential(t *testing.T) {
	sizes := []int{1, 2, 4}
	cfg := TX1(4, TenGigE)
	want, err := Scalability(cfg, "jacobi", sizes, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSession(4).Scalability(cfg, "jacobi", sizes, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		if got.Runtimes[i] != want.Runtimes[i] || got.Speedups[i] != want.Speedups[i] {
			t.Errorf("size %d: parallel session diverged from sequential", sizes[i])
		}
	}
	if got.Efficiency != want.Efficiency {
		t.Error("efficiency decomposition diverged")
	}
	if got.IdealNetworkGain != want.IdealNetworkGain || got.IdealLoadBalanceGain != want.IdealLoadBalanceGain {
		t.Error("replay what-ifs diverged")
	}
	if got.Fit != want.Fit {
		t.Error("scaling fit diverged")
	}
}
