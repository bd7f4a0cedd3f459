package runner

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"clustersoc/internal/network"
)

// TestProfilingDoesNotChangeResults is the observability layer's hard
// guarantee: enabling instrumentation must not move a single simulated
// byte. It compares a plain Execute against a profiled one on a real
// simulation, both as Go values and as marshalled artifact JSON.
func TestProfilingDoesNotChangeResults(t *testing.T) {
	for _, sc := range []Scenario{
		tinyScenario("hpl", 2, network.GigE),
		tinyScenario("ft", 2, network.TenGigE),
	} {
		plain, err := Execute(sc, Observers{})
		if err != nil {
			t.Fatal(err)
		}
		profiled, err := Execute(sc, Observers{Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if profiled.Profile == nil {
			t.Fatalf("%s: profiled Execute returned no profile", sc.Workload)
		}

		// Artifact JSON is byte-identical: Profile is json:"-".
		pb, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := json.Marshal(profiled)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, qb) {
			t.Fatalf("%s: artifact JSON differs with profiling enabled", sc.Workload)
		}

		// And the in-memory simulated values match exactly.
		profiled.Profile = nil
		if !reflect.DeepEqual(plain, profiled) {
			t.Fatalf("%s: Result differs with profiling enabled", sc.Workload)
		}
	}
}

// TestProfileSimSectionDeterministic re-profiles one scenario and checks
// the simulated section is byte-identical; only the wall section may vary.
func TestProfileSimSectionDeterministic(t *testing.T) {
	sc := tinyScenario("hpl", 2, network.TenGigE)
	a, err := Execute(sc, Observers{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(sc, Observers{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := json.Marshal(a.Profile.Sim)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b.Profile.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("profile Sim sections differ across identical runs:\n%s\nvs\n%s", ab, bb)
	}
	if a.Profile.Fingerprint != sc.Fingerprint() {
		t.Fatalf("profile fingerprint = %q, want the scenario's", a.Profile.Fingerprint)
	}
	for _, name := range []string{"sim.events", "cluster.runtime_s", "network.messages"} {
		if a.Profile.Sim.Value(name) <= 0 {
			t.Errorf("profile metric %s = %g, want > 0", name, a.Profile.Sim.Value(name))
		}
	}
	if _, ok := a.Profile.Sim.Get("network.message_size_bytes"); !ok {
		t.Errorf("profile missing the live message-size histogram")
	}
	if a.Profile.Wall == nil || a.Profile.Wall.Note == "" {
		t.Errorf("profile wall section missing or unlabelled: %+v", a.Profile.Wall)
	}
}

// TestCachedProfileShared: duplicate submissions share the cached
// result's profile rather than re-simulating or re-profiling.
func TestCachedProfileShared(t *testing.T) {
	r := New(2)
	r.SetObservers(Observers{Profile: true})
	sc := tinyScenario("hpl", 2, network.GigE)
	a, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Profile == nil || a.Profile != b.Profile {
		t.Fatalf("cached submission did not share the profile: %p vs %p", a.Profile, b.Profile)
	}
	st := r.Stats()
	if st.Simulated != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 simulated / 1 hit", st)
	}
	profs := r.Profiles()
	if len(profs) != 1 || profs[0] != a.Profile {
		t.Fatalf("Profiles() = %d entries, want the one shared profile", len(profs))
	}
}

func TestProfilesSortedByFingerprint(t *testing.T) {
	r := New(2)
	r.SetObservers(Observers{Profile: true})
	scs := []Scenario{
		tinyScenario("hpl", 4, network.TenGigE),
		tinyScenario("hpl", 2, network.GigE),
		tinyScenario("ft", 2, network.GigE),
	}
	if _, err := r.RunAll(scs); err != nil {
		t.Fatal(err)
	}
	profs := r.Profiles()
	if len(profs) != 3 {
		t.Fatalf("got %d profiles, want 3", len(profs))
	}
	for i := 1; i < len(profs); i++ {
		if profs[i-1].Fingerprint >= profs[i].Fingerprint {
			t.Fatalf("profiles not sorted by fingerprint at %d", i)
		}
	}
}

// TestProfilingOffLeavesNoProfile: the default run-plane attaches nothing.
func TestProfilingOffLeavesNoProfile(t *testing.T) {
	r := New(1)
	res, err := r.Run(tinyScenario("hpl", 2, network.GigE))
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Fatalf("unprofiled run carries a profile")
	}
	if got := r.Profiles(); len(got) != 0 {
		t.Fatalf("Profiles() = %d entries, want none", len(got))
	}
}

// TestStatsWallAndOccupancy drives a stubbed executor and checks the new
// Stats fields: wall time accumulates per execution and MaxInFlight
// records the worker-occupancy high-water mark.
func TestStatsWallAndOccupancy(t *testing.T) {
	const workers = 3
	var mu sync.Mutex
	inFlight, peak := 0, 0
	r := stubRunner(workers, func(s Scenario) (Result, error) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return Result{}, nil
	})
	scs := make([]Scenario, 6)
	for i := range scs {
		scs[i] = tinyScenario("hpl", i+1, network.GigE)
	}
	if _, err := r.RunAll(scs); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.MaxInFlight < 1 || st.MaxInFlight > workers {
		t.Fatalf("MaxInFlight = %d, want within [1, %d]", st.MaxInFlight, workers)
	}
	mu.Lock()
	observed := peak
	mu.Unlock()
	if st.MaxInFlight < observed {
		t.Fatalf("MaxInFlight = %d below executor-observed peak %d", st.MaxInFlight, observed)
	}
	// 6 runs of >= 5ms each accumulate >= 30ms of worker-seconds.
	if st.WallSeconds < 6*0.005 {
		t.Fatalf("WallSeconds = %g, want >= 0.03", st.WallSeconds)
	}
}
