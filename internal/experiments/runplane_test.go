package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sort"
	"strings"
	"testing"

	"clustersoc/internal/runner"
)

// TestSharedRunnerDedupesAcrossGenerators drives several generators
// through one parallel run-plane — the cmd/experiments configuration —
// and checks both halves of the contract: artifacts are identical to the
// sequential per-generator runs, and scenarios shared between artifacts
// (the Fig. 1 TenGigE runs reappear in Fig. 3 and Table II) simulate
// only once.
func TestSharedRunnerDedupesAcrossGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full generators")
	}
	seqOpts := testOptions()
	wantFig1 := Fig1(seqOpts)
	wantFig3 := Fig3(seqOpts)
	wantTab2 := Table2(seqOpts)

	shared := testOptions()
	shared.Runner = runner.New(4)
	gotFig1 := Fig1(shared)
	gotFig3 := Fig3(shared)
	gotTab2 := Table2(shared)

	if !reflect.DeepEqual(gotFig1, wantFig1) {
		t.Error("Fig1 under the shared parallel runner differs from the sequential run")
	}
	if !reflect.DeepEqual(gotFig3, wantFig3) {
		t.Error("Fig3 under the shared parallel runner differs from the sequential run")
	}
	if !reflect.DeepEqual(gotTab2, wantTab2) {
		t.Error("Table2 under the shared parallel runner differs from the sequential run")
	}

	st := shared.Runner.Stats()
	if st.Hits == 0 {
		t.Error("expected cache hits: Fig. 3 and Table II reuse the Fig. 1 scenarios")
	}
	if st.Submitted != st.Hits+st.Simulated {
		t.Errorf("stats don't balance: %+v", st)
	}
	// Fig. 3 and Table II each re-submit the full 14-scenario set at 8
	// nodes, and all 14 are already simulated for Fig. 1.
	if st.Hits < 28 {
		t.Errorf("only %d hits; Fig. 3 + Table II alone should contribute 28", st.Hits)
	}
}

// TestOptionsDefaultRunnerIsSequential pins the zero-value behaviour:
// generators called without a Runner run exactly as the seed did.
func TestOptionsDefaultRunnerIsSequential(t *testing.T) {
	o := testOptions()
	if o.Runner != nil {
		t.Fatal("testOptions must not pre-wire a runner")
	}
	r := o.runner()
	if r.Workers() != 1 {
		t.Errorf("default run-plane has %d workers, want 1", r.Workers())
	}
}

// TestScenarioFingerprintsPinned pins every distinct scenario the
// artifact suite and the fault study submit at scale 0.02: the sha256
// of their sorted, newline-joined fingerprints. A change to how any
// generator builds a system moves this digest, and with it the store
// keys a warmed store serves, even where no artifact number moves.
func TestScenarioFingerprintsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every artifact")
	}
	const (
		wantScenarios = 275
		wantDigest    = "2ee4222eef2d2802212d088ea27a4a9fe061be1f247664ea205d10a484fcf2fa"
	)
	o := DefaultOptions()
	o.Scale = 0.02
	o.Runner = runner.New(2)
	o.Runner.SetObservers(runner.Observers{Profile: true})
	Artifacts(o)
	Faults(o)
	var fps []string
	for _, p := range o.Runner.Profiles() {
		fps = append(fps, p.Fingerprint)
	}
	sort.Strings(fps)
	sum := sha256.Sum256([]byte(strings.Join(fps, "\n")))
	if got := hex.EncodeToString(sum[:]); len(fps) != wantScenarios || got != wantDigest {
		t.Fatalf("%d scenarios, digest %s; want %d, %s", len(fps), got, wantScenarios, wantDigest)
	}
}
