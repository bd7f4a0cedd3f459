package simcheck_test

import (
	"testing"

	"clustersoc/internal/cluster"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/workloads"
)

// scenario builds one checked-executable scenario at a small scale.
func scenario(workload string, nodes int, prof network.Profile) runner.Scenario {
	cfg := cluster.TX1Cluster(nodes, prof)
	w, err := workloads.ByName(workload)
	if err != nil {
		panic(err)
	}
	cfg.RanksPerNode = w.RanksPerNode()
	if w.GPUAccelerated() {
		cfg.FileServer = true
	}
	return runner.Scenario{Cluster: cfg, Workload: workload, Config: workloads.Config{Scale: 0.02}}
}

func runtimeOf(t *testing.T, s runner.Scenario) float64 {
	t.Helper()
	res, err := runner.Execute(s, runner.Observers{Check: true})
	if err != nil {
		t.Fatalf("%s on %s failed its audit: %v", s.Workload, s.Cluster.Name, err)
	}
	return res.Runtime
}

// Metamorphic property: raising network bandwidth (and lowering latency)
// never slows a scenario down — 10 GbE beats 1 GbE, and the ideal
// network lower-bounds both. Every run is audited along the way.
func TestMoreBandwidthNeverSlows(t *testing.T) {
	for _, wl := range []string{"hpl", "cg", "jacobi", "ft"} {
		for _, nodes := range []int{2, 4, 8} {
			gig := runtimeOf(t, scenario(wl, nodes, network.GigE))
			ten := runtimeOf(t, scenario(wl, nodes, network.TenGigE))
			ideal := runtimeOf(t, scenario(wl, nodes, network.Ideal))
			if ten > gig {
				t.Errorf("%s @%d nodes: 10GbE (%g) slower than 1GbE (%g)", wl, nodes, ten, gig)
			}
			if ideal > ten || ideal > gig {
				t.Errorf("%s @%d nodes: ideal network (%g) not a lower bound (10GbE %g, 1GbE %g)",
					wl, nodes, ideal, ten, gig)
			}
		}
	}
}

// Metamorphic property: strong scaling divides a fixed problem — adding
// nodes never increases any rank's share of the compute. (Runtime may
// regress when communication dominates; per-rank compute must not.)
func TestMoreNodesNeverIncreasePerRankCompute(t *testing.T) {
	for _, wl := range []string{"hpl", "cg", "ft"} {
		prev := 0.0
		for i, nodes := range []int{2, 4, 8} {
			res, err := runner.Execute(scenario(wl, nodes, network.TenGigE), runner.Observers{Check: true})
			if err != nil {
				t.Fatal(err)
			}
			perRank := (res.CPUBusySeconds + res.GPUBusySeconds) / float64(res.Ranks)
			if i > 0 && perRank > prev*(1+1e-9) {
				t.Errorf("%s: per-rank busy time grew from %g (at %d ranks' predecessor) to %g at %d nodes",
					wl, prev, nodes/2, perRank, nodes)
			}
			prev = perRank
		}
	}
}
