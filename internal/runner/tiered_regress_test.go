package runner

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersoc/internal/cluster"
	"clustersoc/internal/critpath"
	"clustersoc/internal/network"
	"clustersoc/internal/obs"
	"clustersoc/internal/store"
)

// blockShard puts a regular file where key's shard directory goes in
// the store at dir, so every create under it (lock file, staged entry)
// fails with ENOTDIR: the way a read-only or full store refuses writes,
// and unlike file modes, binding a root test run too.
func blockShard(t *testing.T, dir, key string) {
	t.Helper()
	if err := openStore(t, dir).Put(key, nil); err != nil {
		t.Fatal(err)
	}
	var shard string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(p, ".entry") {
			shard = filepath.Dir(p)
		}
		return err
	})
	if err == nil {
		err = os.RemoveAll(shard)
	}
	if err == nil {
		err = os.WriteFile(shard, nil, 0o644)
	}
	if err != nil || shard == "" {
		t.Fatalf("setup: blocking the shard of %q: %v", key, err)
	}
}

// TestTieredRunFallsThroughOnUnwritableStore is the busy-spin
// regression: on a store that cannot create a lock file there is no
// holder to wait for, so the run must simulate at once, neither spinning
// nor waiting out the lock bound, and count the write it could not make.
func TestTieredRunFallsThroughOnUnwritableStore(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("cg", 2, network.TenGigE)
	blockShard(t, dir, sc.Fingerprint())
	st := openStore(t, dir)
	r := New(1)
	r.SetStore(st)

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
		t.Fatal("Run waited on the unwritable store instead of falling through to simulation")
	}
	stats := r.Stats()
	if stats.Simulated != 1 || stats.StorePutFailed != 1 || stats.StoreWrites != 0 {
		t.Fatalf("stats %+v: want Simulated 1, StorePutFailed 1, StoreWrites 0", stats)
	}
	// No entry can exist under the blocked shard: the lookup is a miss,
	// not corruption.
	if stats.StoreMisses != 1 || stats.StoreCorrupt != 0 {
		t.Fatalf("stats %+v: want StoreMisses 1, StoreCorrupt 0", stats)
	}
	if c := st.Counters(); c.Writes != 0 || c.Misses != 1 || c.Corrupt != 0 {
		t.Fatalf("store counters %+v: want 0 writes, 1 miss, 0 corrupt on an unwritable store", c)
	}
}

// TestFailedPersistIsCounted is the dropped-write regression: a result
// entry or observer record that fails to encode or to write must leave
// the scenario served from its simulation, with no error, and count in
// StorePutFailed. None of the failures rests on file permissions, which
// do not bind a root test run.
func TestFailedPersistIsCounted(t *testing.T) {
	sc := tinyScenario("cg", 2, network.TenGigE)
	// occupy seeds dir with sc's entries, then puts an empty directory
	// where the one whose payload contains marker lives, so renaming a
	// staged write onto it fails.
	occupy := func(o Observers, marker string) func(*testing.T, string, *store.Store) {
		return func(t *testing.T, dir string, _ *store.Store) {
			seed := New(1)
			seed.SetStore(openStore(t, dir))
			seed.SetObservers(o)
			if _, err := seed.Run(sc); err != nil {
				t.Fatal(err)
			}
			found := 0
			err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
				if err != nil || !strings.HasSuffix(p, ".entry") {
					return err
				}
				data, err := os.ReadFile(p)
				if err == nil && bytes.Contains(data, []byte(marker)) {
					found++
					if err = os.Remove(p); err == nil {
						err = os.Mkdir(p, 0o755)
					}
				}
				return err
			})
			if err != nil || found != 1 {
				t.Fatalf("setup: occupied %d entries holding %q (err %v), want 1", found, marker, err)
			}
		}
	}
	cases := []struct {
		name  string
		o     Observers
		exec  func(Scenario, Observers) (Result, error)
		setup func(*testing.T, string, *store.Store)
		// writes is the StoreWrites count: 1 when only a record failed.
		writes int
	}{
		{"read-only store", Observers{}, Execute, func(t *testing.T, dir string, _ *store.Store) { blockShard(t, dir, sc.Fingerprint()) }, 0},
		{"entry path taken by a directory", Observers{}, Execute, occupy(Observers{}, `"events"`), 0},
		{"profile record path taken by a directory", Observers{Profile: true}, Execute, occupy(Observers{Profile: true}, `"record"`), 1},
		{"result JSON cannot encode", Observers{}, func(Scenario, Observers) (Result, error) {
			return Result{Result: cluster.Result{Runtime: math.Inf(1)}}, nil
		}, func(*testing.T, string, *store.Store) {}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			tc.setup(t, dir, st)
			r := New(1)
			r.exec = tc.exec
			r.SetStore(st)
			r.SetObservers(tc.o)
			got, out, err := r.RunTracked(sc)
			if err != nil {
				t.Fatal(err)
			}
			if out.Source != SourceSimulated {
				t.Fatalf("source = %q, want %q", out.Source, SourceSimulated)
			}
			stats := r.Stats()
			if stats.StorePutFailed != 1 || stats.StoreWrites != tc.writes || stats.Simulated != 1 {
				t.Fatalf("stats %+v: want StorePutFailed 1, StoreWrites %d, Simulated 1", stats, tc.writes)
			}
			want, err := tc.exec(sc, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			if !sameServed(want, got) {
				t.Fatal("served result differs from the simulation")
			}
		})
	}
}

// TestPersistTwoWriterInterleavingKeepsBothRecords is the lost-record
// regression: two writers of one scenario — one holding only a Profile,
// one only a CritPath — persist it concurrently, over and over, through
// two stores sharing one directory. Each record lives under its own
// key, so however the writes interleave neither writer can drop the
// other's record, and a fresh runner asking for both hits without
// simulating. CI runs this package under -race.
func TestPersistTwoWriterInterleavingKeepsBothRecords(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("cg", 2, network.TenGigE)
	fp := sc.Fingerprint()
	base, err := Execute(sc, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	withProfile := base
	withProfile.Profile = &obs.Profile{Scenario: "A", Fingerprint: fp}
	withCrit := base
	withCrit.CritPath = mustReport(t, sc)

	const rounds = 20
	var wg sync.WaitGroup
	for _, res := range []Result{withProfile, withCrit} {
		wg.Add(1)
		go func(st *store.Store, res Result) {
			defer wg.Done()
			r := New(1)
			for i := 0; i < rounds; i++ {
				r.persist(st, fp, res)
			}
			if got := r.Stats().StoreWrites; got != rounds {
				t.Errorf("StoreWrites = %d, want %d: one per persisted execution", got, rounds)
			}
		}(openStore(t, dir), res)
	}
	wg.Wait()
	serveBoth(t, dir, sc)
}

// TestPersistSequentialWritersKeepBothRecords is the sequential form of
// the check above: persist a profile, then a critpath report, then serve
// both from the store.
func TestPersistSequentialWritersKeepBothRecords(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	sc := tinyScenario("cg", 2, network.TenGigE)
	fp := sc.Fingerprint()
	base, err := Execute(sc, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	withProfile := base
	withProfile.Profile = &obs.Profile{Scenario: "prior", Fingerprint: fp}
	withCrit := base
	withCrit.CritPath = mustReport(t, sc)
	r := New(1)
	r.persist(st, fp, withProfile)
	r.persist(st, fp, withCrit)
	serveBoth(t, dir, sc)
}

// serveBoth requires a fresh runner asking for both observer records to
// be served sc from the store in dir, records included.
func serveBoth(t *testing.T, dir string, sc Scenario) {
	t.Helper()
	r := New(1)
	r.SetStore(openStore(t, dir))
	r.SetObservers(Observers{Profile: true, CritPath: true})
	res, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.StoreHits != 1 || st.Simulated != 0 {
		t.Fatalf("both records must serve from the store: %+v", st)
	}
	if res.Profile == nil || res.CritPath == nil {
		t.Fatalf("a record was dropped (profile %v, critpath %v)", res.Profile != nil, res.CritPath != nil)
	}
}

// mustReport produces a real critical-path report for sc, so stored
// entries in these tests round-trip through the full schema.
func mustReport(t *testing.T, sc Scenario) *critpath.Report {
	t.Helper()
	res, err := Execute(sc, Observers{CritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CritPath == nil {
		t.Fatal("Execute with Observers.CritPath returned no report")
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
	s := Stats{Submitted: 5, Hits: 2, Simulated: 3, StoreHits: 1, MaxInFlight: 2, StorePutFailed: 4}
	snap := s.Snapshot()
	want := map[string]float64{
		"runner.submitted":        5,
		"runner.hit":              2,
		"runner.simulated":        3,
		"runner.store_hit":        1,
		"runner.max_in_flight":    2,
		"runner.store_put_failed": 4,
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
