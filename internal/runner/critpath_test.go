package runner

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"clustersoc/internal/critpath"
	"clustersoc/internal/network"
)

// critpathBatch is a small mixed batch: two workloads, two fabrics, so
// the parallel plane has genuinely concurrent recorded simulations.
func critpathBatch() []Scenario {
	return []Scenario{
		tinyScenario("hpl", 2, network.GigE),
		tinyScenario("hpl", 2, network.TenGigE),
		tinyScenario("ft", 2, network.GigE),
		tinyScenario("ft", 2, network.TenGigE),
	}
}

// TestCritPathSidecarDeterministicAcrossPlanes locks in the sidecar
// bit-identity guarantee: a sequential run-plane (workers=1) and a
// parallel one (workers=4) must serialize byte-identical critical-path
// sidecars for the same batch. Recording rides the engine goroutine and
// analysis is a pure function of the recorded graph, so worker
// scheduling must never leak into the reports.
func TestCritPathSidecarDeterministicAcrossPlanes(t *testing.T) {
	sidecar := func(workers int) []byte {
		r := New(workers)
		r.SetObservers(Observers{CritPath: true})
		if _, err := r.RunAll(critpathBatch()); err != nil {
			t.Fatal(err)
		}
		reports := r.Reports()
		if len(reports) != len(critpathBatch()) {
			t.Fatalf("workers=%d: %d reports for %d scenarios", workers, len(reports), len(critpathBatch()))
		}
		var buf bytes.Buffer
		if err := critpath.WriteReports(&buf, reports); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := sidecar(1)
	par := sidecar(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("critpath sidecar differs between run-planes:\nworkers=1: %s\nworkers=4: %s", seq, par)
	}
}

// TestCritPathDoesNotChangeResults is the recording analogue of the
// profiling guarantee: enabling -critpath must not move a single
// simulated byte, at the Runner layer where caching and run-planes sit.
func TestCritPathDoesNotChangeResults(t *testing.T) {
	plainR := New(2)
	plain, err := plainR.RunAll(critpathBatch())
	if err != nil {
		t.Fatal(err)
	}
	recR := New(2)
	recR.SetObservers(Observers{CritPath: true})
	recorded, err := recR.RunAll(critpathBatch())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(recorded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, rb) {
		t.Fatalf("artifact JSON differs with critpath recording enabled:\noff: %s\non:  %s", pb, rb)
	}
	for i := range recorded {
		if recorded[i].CritPath == nil {
			t.Fatalf("scenario %d: recorded run carries no report", i)
		}
		recorded[i].CritPath = nil
		if !reflect.DeepEqual(plain[i], recorded[i]) {
			t.Fatalf("scenario %d: Result differs with recording enabled", i)
		}
	}
}

// TestCritPathOffLeavesNoReport: with recording off the Runner must not
// attach reports, and Reports() stays empty.
func TestCritPathOffLeavesNoReport(t *testing.T) {
	r := New(2)
	if _, err := r.RunAll(critpathBatch()[:2]); err != nil {
		t.Fatal(err)
	}
	if got := r.Reports(); len(got) != 0 {
		t.Fatalf("recording off but Reports() returned %d reports", len(got))
	}
}
