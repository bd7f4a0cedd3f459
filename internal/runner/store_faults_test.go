package runner

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"clustersoc/internal/network"
)

// faultScenarios are three scenarios whose entries one sequential Runner
// appends to one segment in order.
func faultScenarios() []Scenario {
	return []Scenario{
		tinyScenario("cg", 2, network.TenGigE),
		tinyScenario("hpl", 2, network.TenGigE),
		tinyScenario("ep", 2, network.TenGigE),
	}
}

// seedSegment runs scs into a fresh store at dir on one worker, so their
// entries are the only records of one segment.
func seedSegment(t *testing.T, dir string, scs []Scenario) []Result {
	t.Helper()
	r := New(1)
	r.SetStore(openStore(t, dir))
	res, err := r.RunAll(scs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(segments(t, dir)); n != 1 {
		t.Fatalf("setup: %d segments, want 1", n)
	}
	return res
}

// rerun serves scs through a fresh Runner on the store at dir within a
// bound far below the lock wait, so a run that waited on a lock fails.
func rerun(t *testing.T, dir string, scs []Scenario, want []Result) Stats {
	t.Helper()
	r := New(1)
	r.SetStore(openStore(t, dir))
	start := time.Now()
	got, err := r.RunAll(scs)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("the run took %v: it waited on a lock", d)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("scenario %d served a different result", i)
		}
	}
	return r.Stats()
}

// TestTornTailServesEarlierRecords is a writer killed mid-append: its
// segment ends in a cut record. A fresh Runner is served every earlier
// entry, misses the cut one without counting it corrupt, re-simulates and
// appends it, and a Runner after that is served all of them.
func TestTornTailServesEarlierRecords(t *testing.T) {
	dir := t.TempDir()
	scs := faultScenarios()
	want := seedSegment(t, dir, scs)
	mangleSegment(t, dir, func(d []byte) []byte { return d[:len(d)-7] })

	st := rerun(t, dir, scs, want)
	if st.StoreHits != 2 || st.StoreMisses != 1 || st.StoreCorrupt != 0 || st.Simulated != 1 || st.StoreWrites != 1 {
		t.Fatalf("after a torn tail: %+v, want 2 hits, 1 miss, 0 corrupt, 1 simulated and written", st)
	}
	if st := rerun(t, dir, scs, want); st.StoreHits != 3 || st.Simulated != 0 {
		t.Fatalf("after the re-append: %+v, want 3 hits", st)
	}
}

// TestMidSegmentDamageIsRepaired flips a payload byte of the middle
// record of a segment. Only that key reads corrupt; the records around
// it are served, and the rewrite repairs it for a fresh Runner.
func TestMidSegmentDamageIsRepaired(t *testing.T) {
	dir := t.TempDir()
	scs := faultScenarios()
	want := seedSegment(t, dir, scs)
	mangleSegment(t, dir, func(d []byte) []byte {
		marker := []byte("clustersoc-store v2 ")
		first := bytes.Index(d, marker)
		second := first + len(marker) + bytes.Index(d[first+len(marker):], marker)
		payload := second + bytes.IndexByte(d[second:], '\n') + 1
		if first != 0 || second <= first || bytes.Count(d, marker) != 3 {
			t.Fatalf("setup: record headers at %d and %d of %d", first, second, bytes.Count(d, marker))
		}
		d[payload+10] ^= 0x01
		return d
	})

	st := rerun(t, dir, scs, want)
	if st.StoreHits != 2 || st.StoreCorrupt != 1 || st.Simulated != 1 || st.StoreWrites != 1 {
		t.Fatalf("after mid-segment damage: %+v, want 2 hits, 1 corrupt, 1 simulated and written", st)
	}
	if st := rerun(t, dir, scs, want); st.StoreHits != 3 || st.Simulated != 0 || st.StoreCorrupt != 0 {
		t.Fatalf("after the rewrite: %+v, want 3 hits", st)
	}
}
