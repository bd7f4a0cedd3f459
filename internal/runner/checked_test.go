package runner

import (
	"strings"
	"testing"

	"clustersoc/internal/network"
)

// TestCheckedExecutionByteIdentical locks in the simcheck contract: the
// audit is read-only, so a checked execution returns bit-identical
// results to an unchecked one, and a checking run-plane matches a plain
// one scenario for scenario.
func TestCheckedExecutionByteIdentical(t *testing.T) {
	scenarios := []Scenario{
		tinyScenario("hpl", 4, network.TenGigE),
		tinyScenario("jacobi", 2, network.GigE),
		tinyScenario("cg", 3, network.TenGigE),
		tinyScenario("ep", 1, network.GigE),
	}
	for _, s := range scenarios {
		plain, err := Execute(s, Observers{})
		if err != nil {
			t.Fatal(err)
		}
		checked, err := Execute(s, Observers{Check: true})
		if err != nil {
			t.Fatalf("%s/%d failed its audit: %v", s.Workload, s.Cluster.Nodes, err)
		}
		assertIdentical(t, "checked execution", s, checked.Result, plain.Result)
	}

	r := New(2)
	r.SetObservers(Observers{Check: true})
	results, err := r.RunAll(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scenarios {
		plain, _ := Execute(s, Observers{})
		assertIdentical(t, "checking run-plane", s, results[i].Result, plain.Result)
	}
	if st := r.Stats(); st.Audited != len(scenarios) {
		t.Fatalf("Audited = %d, want %d (once per distinct fingerprint)", st.Audited, len(scenarios))
	}
}

// Duplicate submissions join the cached result: the audit runs once per
// fingerprint, not once per submission.
func TestAuditOncePerFingerprint(t *testing.T) {
	r := New(2)
	r.SetObservers(Observers{Check: true})
	s := tinyScenario("cg", 2, network.GigE)
	if _, err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Simulated != 1 || st.Audited != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 simulated, 1 audited, 1 cache hit", st)
	}
}

// An audit failure must carry the scenario's identity so a batch failure
// points at the offending run.
func TestCheckedFailureNamesScenario(t *testing.T) {
	r := New(1)
	r.SetObservers(Observers{Check: true})
	s := tinyScenario("hpl", 2, network.GigE)
	sawChecked := false
	r.exec = func(s Scenario, o Observers) (Result, error) {
		sawChecked = o.Check
		return Execute(s, o)
	}
	if _, err := r.Run(s); err != nil {
		t.Fatal(err)
	}
	if !sawChecked {
		t.Fatal("Observers.Check did not reach the executor")
	}
	// And the real executor wraps violations with the scenario name: drive
	// it through a scenario that cannot exist to confirm the plumbing
	// returns errors (the audit-failure path shares it).
	if _, err := Execute(Scenario{Workload: "no-such-workload"}, Observers{}); err == nil || !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("executor error plumbing broken: %v", err)
	}
}
