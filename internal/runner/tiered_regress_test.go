package runner

import (
	"sync"
	"testing"
	"time"

	"clustersoc/internal/critpath"
	"clustersoc/internal/network"
	"clustersoc/internal/obs"
)

// TestTieredRunFallsThroughOnUnwritableStore is the busy-spin
// regression: when TryLock persistently fails with no lock file on disk
// (a read-only or full store directory — modeled here by the store's
// read-only mode, which declines lock creation exactly the way EROFS
// does), WaitUnlocked returns true immediately and the load keeps
// missing. Before the fix, the `for release == nil` loop retried that
// cycle forever without consulting the deadline; now it detects that
// there is no holder to wait for and falls through to simulation.
func TestTieredRunFallsThroughOnUnwritableStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	st.SetReadOnly(true)
	// A generous lock wait: the fix must not even burn this much — the
	// no-holder fast path breaks out on the first cycle.
	st.SetLockWait(time.Minute)

	r := New(1)
	r.SetStore(st)
	sc := tinyScenario("cg", 2, network.TenGigE)

	type outcome struct {
		res Result
		out Outcome
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, out, err := r.RunTracked(sc)
		done <- outcome{res, out, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.out.Source != SourceSimulated {
			t.Fatalf("source = %q, want %q", o.out.Source, SourceSimulated)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run spun on the unwritable store instead of falling through to simulation")
	}
	stats := r.Stats()
	if stats.Simulated != 1 {
		t.Fatalf("Simulated = %d, want 1", stats.Simulated)
	}
	if stats.StoreWrites != 0 {
		t.Fatalf("StoreWrites = %d on a read-only store, want 0", stats.StoreWrites)
	}
	if got := st.Counters().Writes; got != 0 {
		t.Fatalf("store recorded %d writes in read-only mode", got)
	}
}

// TestPersistTwoWriterInterleavingKeepsBothRecords is the lost-record
// regression: two upgraders of one entry — one adding a Profile, one
// adding a CritPath — each Peek before the other's Put. Before the fix
// the last writer silently dropped the other's record; now the lockless
// writer detects the downgrade on its post-Put verification read and
// re-merges, so the final entry carries both records.
//
// The interleaving is choreographed with the persist test hooks:
//
//	A (locked):   merge-peek(empty)  .................  put(P)  verify
//	B (lockless):                    merge-peek(empty)          put(C)  verify->repair
//
// i.e. B's Put lands between A's peek and A's Put, and A's Put clobbers
// B's record; B's verification read (which runs after A's Put) sees its
// CritPath gone from the current entry and rewrites the union.
func TestPersistTwoWriterInterleavingKeepsBothRecords(t *testing.T) {
	dir := t.TempDir()
	stA := openStore(t, dir)
	stB := openStore(t, dir)
	sc := tinyScenario("cg", 2, network.TenGigE)
	fp := sc.Fingerprint()

	base, err := Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	resA := base
	resA.Profile = &obs.Profile{Scenario: "A", Fingerprint: fp}
	resB := base
	resB.CritPath = mustReport(t, sc)

	var (
		aPeeked = make(chan struct{}) // A holds the lock and has merge-peeked
		bPut    = make(chan struct{}) // B's Put has landed
		aPut    = make(chan struct{}) // A's Put has landed
		once    sync.Once
		onceA   sync.Once
		onceB   sync.Once
	)
	rA := New(1)
	rA.persistPrePut = func() {
		once.Do(func() { close(aPeeked) })
		<-bPut // hold A between its merge peek and its Put until B has written
	}
	rA.persistPreVerify = func() {
		onceA.Do(func() { close(aPut) })
	}
	rB := New(1)
	rB.persistPreVerify = func() {
		onceB.Do(func() { close(bPut) })
		<-aPut // B verifies only after A's clobbering Put
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rA.persist(stA, fp, resA, false) // takes the key lock
	}()
	go func() {
		defer wg.Done()
		<-aPeeked
		rB.persist(stB, fp, resB, false) // lock held by A: goes lockless
	}()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("choreographed persist interleaving deadlocked")
	}

	data, err := stA.Peek(fp)
	if err != nil {
		t.Fatal(err)
	}
	final, err := decodeStored(data, fp)
	if err != nil {
		t.Fatal(err)
	}
	if final.Profile == nil {
		t.Fatal("final entry dropped writer A's Profile record")
	}
	if final.CritPath == nil {
		t.Fatal("final entry dropped writer B's CritPath record")
	}
}

// TestPersistUnderKeyLockMergesPrior pins the serialized path: an
// upgrader that gets the key lock re-peeks under it and carries the
// existing entry's records forward.
func TestPersistUnderKeyLockMergesPrior(t *testing.T) {
	st := openStore(t, t.TempDir())
	sc := tinyScenario("cg", 2, network.TenGigE)
	fp := sc.Fingerprint()

	base, err := Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	withProfile := base
	withProfile.Profile = &obs.Profile{Scenario: "prior", Fingerprint: fp}
	r := New(1)
	r.persist(st, fp, withProfile, false)

	withCrit := base
	withCrit.CritPath = mustReport(t, sc)
	r.persist(st, fp, withCrit, false)

	data, err := st.Peek(fp)
	if err != nil {
		t.Fatal(err)
	}
	final, err := decodeStored(data, fp)
	if err != nil {
		t.Fatal(err)
	}
	if final.Profile == nil || final.CritPath == nil {
		t.Fatalf("sequential upgrades must accumulate records (profile %v, critpath %v)",
			final.Profile != nil, final.CritPath != nil)
	}
}

// TestPersistWithoutRecordsSkipsVerification: a downgrade is an entry
// missing a record this writer holds, so a writer holding neither a
// Profile nor a CritPath returns after its write instead of re-reading
// and re-decoding the entry it has just written.
func TestPersistWithoutRecordsSkipsVerification(t *testing.T) {
	st := openStore(t, t.TempDir())
	sc := tinyScenario("cg", 2, network.TenGigE)
	sc.Cluster.Traced = true
	fp := sc.Fingerprint()
	res, err := Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	verified := 0
	r.persistPreVerify = func() { verified++ }
	r.persist(st, fp, res, false)
	if verified != 0 {
		t.Fatalf("record-less persist ran %d post-write verification pass(es), want 0", verified)
	}
	if r.Stats().StoreWrites != 1 {
		t.Fatalf("persist did not write: %+v", r.Stats())
	}
	data, err := st.Peek(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeStored(data, fp); err != nil {
		t.Fatal(err)
	}
}

// mustReport produces a real critical-path report for sc, so stored
// entries in these tests round-trip through the full schema.
func mustReport(t *testing.T, sc Scenario) *critpath.Report {
	t.Helper()
	res, err := ExecuteCritPath(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CritPath == nil {
		t.Fatal("ExecuteCritPath returned no report")
	}
	return res.CritPath
}

// TestRunTrackedOutcomes pins the per-submission accounting the service
// front end reports: the first submission simulates, a duplicate on the
// same Runner is a coalesced memory hit, and a fresh Runner sharing the
// store decodes the persistent entry.
func TestRunTrackedOutcomes(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("cg", 2, network.TenGigE)

	r1 := New(1)
	r1.SetStore(openStore(t, dir))
	_, out, err := r1.RunTracked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceSimulated || out.Coalesced {
		t.Fatalf("cold submission outcome = %+v, want simulated/uncoalesced", out)
	}
	_, out, err = r1.RunTracked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceMemory || !out.Coalesced {
		t.Fatalf("duplicate submission outcome = %+v, want memory/coalesced", out)
	}

	r2 := New(1)
	r2.SetStore(openStore(t, dir))
	_, out, err = r2.RunTracked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceStore || out.Coalesced {
		t.Fatalf("warm-store submission outcome = %+v, want store/uncoalesced", out)
	}
	if st := r2.Stats(); st.Simulated != 0 || st.StoreHits != 1 {
		t.Fatalf("warm-store stats = %+v, want 0 simulated / 1 store hit", st)
	}
}

// TestStatsSnapshotRendersRunnerScope pins the obs rendering /statusz
// merges with the store's snapshot.
func TestStatsSnapshotRendersRunnerScope(t *testing.T) {
	s := Stats{Submitted: 5, Hits: 2, Simulated: 3, StoreHits: 1, MaxInFlight: 2}
	snap := s.Snapshot()
	want := map[string]float64{
		"runner.submitted":     5,
		"runner.hit":           2,
		"runner.simulated":     3,
		"runner.store_hit":     1,
		"runner.max_in_flight": 2,
	}
	for name, v := range want {
		m, ok := snap.Get(name)
		if !ok {
			t.Fatalf("snapshot missing %s", name)
		}
		if m.Value != v {
			t.Fatalf("%s = %v, want %v", name, m.Value, v)
		}
		if !m.NonDeterministic {
			t.Fatalf("%s must be non-deterministic: cache state varies run to run", name)
		}
	}
	if len(snap.Deterministic().Metrics) != 0 {
		t.Fatal("runner stats must never enter deterministic snapshots")
	}
}
