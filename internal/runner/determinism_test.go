package runner

import (
	"math/rand"
	"reflect"
	"testing"

	"clustersoc/internal/cluster"
	"clustersoc/internal/network"
)

// TestDeterminism is the run-plane's regression contract: the same
// Scenario run twice sequentially, and once under a parallel runner with
// shuffled submission order, yields bit-identical cluster.Result values.
func TestDeterminism(t *testing.T) {
	scenarios := []Scenario{
		tinyScenario("hpl", 2, network.TenGigE),
		tinyScenario("jacobi", 2, network.GigE),
		tinyScenario("cg", 4, network.TenGigE),
		tinyScenario("ep", 1, network.GigE),
	}

	// Two fully independent sequential executions of every scenario.
	first := make([]Result, len(scenarios))
	second := make([]Result, len(scenarios))
	for i, s := range scenarios {
		var err error
		if first[i], err = Execute(s, Observers{}); err != nil {
			t.Fatal(err)
		}
		if second[i], err = Execute(s, Observers{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range scenarios {
		assertIdentical(t, "sequential rerun", scenarios[i], first[i].Result, second[i].Result)
	}

	// A parallel runner fed the same scenarios in shuffled order, with
	// duplicates so the cache path is exercised too.
	rng := rand.New(rand.NewSource(42))
	var batch []Scenario
	var want []Result
	for round := 0; round < 3; round++ {
		perm := rng.Perm(len(scenarios))
		for _, i := range perm {
			batch = append(batch, scenarios[i])
			want = append(want, first[i])
		}
	}
	got, err := New(4).RunAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		assertIdentical(t, "parallel shuffled batch", batch[i], got[i].Result, want[i].Result)
	}
}

// assertIdentical requires bit-identical results, field by field for the
// scalar measurements (exact float equality — determinism means the same
// bits, not close bits) and DeepEqual for the nested structures.
func assertIdentical(t *testing.T, mode string, s Scenario, got, want cluster.Result) {
	t.Helper()
	if got.Runtime != want.Runtime {
		t.Errorf("%s: %s/%d: Runtime %v != %v", mode, s.Workload, s.Cluster.Nodes, got.Runtime, want.Runtime)
	}
	if got.EnergyJoules != want.EnergyJoules {
		t.Errorf("%s: %s/%d: EnergyJoules %v != %v", mode, s.Workload, s.Cluster.Nodes, got.EnergyJoules, want.EnergyJoules)
	}
	if got.NetBytes != want.NetBytes || got.DRAMBytes != want.DRAMBytes {
		t.Errorf("%s: %s/%d: traffic (%v, %v) != (%v, %v)", mode, s.Workload, s.Cluster.Nodes,
			got.NetBytes, got.DRAMBytes, want.NetBytes, want.DRAMBytes)
	}
	if got.FLOPs != want.FLOPs || got.Throughput != want.Throughput {
		t.Errorf("%s: %s/%d: work (%v, %v) != (%v, %v)", mode, s.Workload, s.Cluster.Nodes,
			got.FLOPs, got.Throughput, want.FLOPs, want.Throughput)
	}
	if !reflect.DeepEqual(got.PMU, want.PMU) {
		t.Errorf("%s: %s/%d: PMU counters differ", mode, s.Workload, s.Cluster.Nodes)
	}
	if !reflect.DeepEqual(got.GPU, want.GPU) {
		t.Errorf("%s: %s/%d: GPU metrics differ", mode, s.Workload, s.Cluster.Nodes)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: %s/%d: results not bit-identical", mode, s.Workload, s.Cluster.Nodes)
	}
}
