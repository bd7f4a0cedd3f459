package runner

import (
	"math/rand"
	"reflect"
	"testing"

	"clustersoc/internal/faults"
	"clustersoc/internal/network"
)

// A scenario with a seeded fault plan is as deterministic as a fault-free
// one: sequential reruns and a shuffled parallel batch must produce
// bit-identical results, including every fault statistic. This is the
// injection plane's core contract — all draws come from seeded streams
// inside the single-threaded engine, so worker scheduling cannot reorder
// them.
func TestFaultPlanDeterminism(t *testing.T) {
	// Measure the fault-free runtime first so the plan's scales are
	// meaningful at the test's tiny workload scale.
	base := tinyScenario("jacobi", 2, network.GigE)
	bres, err := Execute(base, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	T := bres.Runtime

	s := tinyScenario("jacobi", 2, network.GigE)
	s.Cluster.Faults = &faults.Plan{
		Seed:              1234,
		StragglerFraction: 0.5, StragglerFactor: 1.4,
		DerateFraction: 0.5, LinkDerate: 0.5,
		FlapMTBF: T / 4, FlapSeconds: T / 100,
		MessageLossProb: 0.02,
		CrashMTBF:       2 * T, RestartSeconds: T / 50,
		CheckpointInterval: T / 8, CheckpointSeconds: T / 400,
	}

	first, err := Execute(s, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Faults == nil {
		t.Fatal("seeded plan produced no fault stats")
	}
	second, err := Execute(s, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "sequential rerun", s, first.Result, second.Result)
	if !reflect.DeepEqual(first.Faults, second.Faults) {
		t.Fatalf("fault stats differ across sequential reruns:\n first: %+v\nsecond: %+v",
			*first.Faults, *second.Faults)
	}

	// Parallel runner, shuffled batch with duplicates (cache path too).
	rng := rand.New(rand.NewSource(7))
	batch := make([]Scenario, 6)
	for i := range batch {
		batch[i] = s
	}
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	got, err := New(4).RunAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		assertIdentical(t, "parallel batch", s, got[i].Result, first.Result)
		if !reflect.DeepEqual(got[i].Faults, first.Faults) {
			t.Fatalf("parallel result %d fault stats differ:\n  got: %+v\n want: %+v",
				i, *got[i].Faults, *first.Faults)
		}
	}

	// Fingerprint soundness: the plan must separate this scenario from the
	// fault-free one, or the memoizing runner would hand back the wrong run.
	if s.Fingerprint() == base.Fingerprint() {
		t.Fatal("fault plan does not participate in the scenario fingerprint")
	}
	s2 := s
	p2 := *s.Cluster.Faults
	p2.Seed = 4321
	s2.Cluster.Faults = &p2
	if s2.Fingerprint() == s.Fingerprint() {
		t.Fatal("plan seed does not participate in the scenario fingerprint")
	}
}
