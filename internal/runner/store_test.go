package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersoc/internal/faults"
	"clustersoc/internal/network"
	"clustersoc/internal/obs"
	"clustersoc/internal/store"
	"clustersoc/internal/workloads"
)

// openStore opens a fresh (or shared) store for tests.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreTierServesAcrossRunners is the tentpole property: a scenario
// simulated by one Runner is served to a completely fresh Runner (a new
// process, as far as the cache is concerned) by decoding the persistent
// entry — zero simulations, identical Result.
func TestStoreTierServesAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("hpl", 2, network.TenGigE)

	r1 := New(1)
	r1.SetStore(openStore(t, dir))
	want, err := r1.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	st1 := r1.Stats()
	if st1.Simulated != 1 || st1.StoreMisses != 1 || st1.StoreWrites != 1 || st1.StoreHits != 0 {
		t.Fatalf("cold stats: %+v", st1)
	}

	r2 := New(1)
	r2.SetStore(openStore(t, dir))
	got, err := r2.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	st2 := r2.Stats()
	if st2.Simulated != 0 || st2.StoreHits != 1 || st2.StoreMisses != 0 || st2.StoreWrites != 0 {
		t.Fatalf("warm stats: %+v", st2)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("stored result differs from the simulated one")
	}
	if got.Events == 0 || got.Events != want.Events {
		t.Fatalf("Events must survive the store round trip: got %d, want %d", got.Events, want.Events)
	}
}

// TestStoreTierRoundTripsTracedRun covers the heavyweight field: a
// traced scenario's full Extrae-style trace must decode bit-equal, since
// cmd/replay and the scalability methodology consume it.
func TestStoreTierRoundTripsTracedRun(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("cg", 2, network.TenGigE)
	sc.Cluster.Traced = true

	r1 := New(1)
	r1.SetStore(openStore(t, dir))
	want, err := r1.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if want.Trace == nil || len(want.Trace.Ranks) == 0 {
		t.Fatal("setup: traced run produced no trace")
	}
	r2 := New(1)
	r2.SetStore(openStore(t, dir))
	got, err := r2.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats().Simulated != 0 {
		t.Fatal("warm traced run must not simulate")
	}
	if !reflect.DeepEqual(want.Trace, got.Trace) {
		t.Fatal("trace changed in the store round trip")
	}
	// simd serves a traced result as JSON: the store-served bytes must be
	// the simulated ones, down to ranks without ops staying null.
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatal("store-served traced result marshals to different JSON than the simulated one")
	}
}

// TestStoreTierServesReplayWithoutTrace pins a Replay scenario's entry:
// the analysis rides in the JSON head, no trace section follows, and a
// fresh Runner is served the simulated Result from it.
func TestStoreTierServesReplayWithoutTrace(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("cg", 2, network.TenGigE)
	sc.Cluster.Traced = true
	sc.Replay = true

	r1 := New(1)
	r1.SetStore(openStore(t, dir))
	want, err := r1.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if want.Replay == nil || want.Trace != nil {
		t.Fatal("setup: a Replay run must carry its analysis and no trace")
	}
	data, err := r1.Store().Peek(sc.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(data, '\n') >= 0 {
		t.Fatal("a Replay entry holds a trace section")
	}

	r2 := New(1)
	r2.SetStore(openStore(t, dir))
	got, out, err := r2.RunTracked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceStore || r2.Stats().Simulated != 0 {
		t.Fatalf("outcome %+v, stats %+v: want a store hit", out, r2.Stats())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("stored Replay result differs from the simulated one")
	}
}

// segments lists the segment files under the store directory dir.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// mangleSegment rewrites the single segment file under dir with mut.
func mangleSegment(t *testing.T, dir string, mut func([]byte) []byte) {
	t.Helper()
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments under %s: %v, want exactly one", dir, segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], mut(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCorruptEntryFallsBackToSimulation is the corruption satellite
// at the run-plane level: a segment cut mid-record or emptied, wrong
// version tags, garbage payloads, damaged trace sections, and observer
// records that fail to decode or belong to another scenario each read as
// a miss, get counted corrupt unless the record is cut away entirely,
// and are repaired by simulate-and-rewrite — after which a fresh Runner
// with the same observers hits.
func TestStoreCorruptEntryFallsBackToSimulation(t *testing.T) {
	plain := tinyScenario("hpl", 2, network.GigE)
	traced := tinyScenario("cg", 2, network.GigE)
	traced.Cluster.Traced = true
	// rewriteTrace re-puts the entry under fp with its trace section
	// mangled, inside a valid container and after a valid JSON head.
	rewriteTrace := func(t *testing.T, st *store.Store, fp string, mut func([]byte) []byte) {
		data, err := st.Peek(fp)
		if err != nil {
			t.Fatal(err)
		}
		head, tail, ok := bytes.Cut(data, []byte{'\n'})
		if !ok {
			t.Fatal("setup: traced entry has no trace section")
		}
		if err := st.Put(fp, append(append(head, '\n'), mut(tail)...)); err != nil {
			t.Fatal(err)
		}
	}
	replayed := tinyScenario("cg", 2, network.GigE)
	replayed.Cluster.Traced = true
	replayed.Replay = true
	profiled := Observers{Profile: true}
	cases := []struct {
		name    string
		sc      Scenario
		o       Observers
		corrupt func(t *testing.T, dir string, st *store.Store, fp string)
		// cut marks damage that leaves no record naming the key: a plain
		// miss, not corruption.
		cut bool
	}{
		{"truncated entry", plain, Observers{}, func(t *testing.T, dir string, _ *store.Store, _ string) {
			mangleSegment(t, dir, func(d []byte) []byte { return d[:len(d)/2] })
		}, true},
		{"zero-byte entry", plain, Observers{}, func(t *testing.T, dir string, _ *store.Store, _ string) {
			mangleSegment(t, dir, func([]byte) []byte { return nil })
		}, true},
		{"wrong version tag", plain, Observers{}, func(t *testing.T, dir string, _ *store.Store, _ string) {
			mangleSegment(t, dir, func(d []byte) []byte {
				return []byte(strings.Replace(string(d), "clustersoc-store v2 ", "clustersoc-store v9 ", 1))
			})
		}, false},
		{"valid container, garbage JSON payload", plain, Observers{}, func(t *testing.T, _ string, st *store.Store, fp string) {
			if err := st.Put(fp, []byte("{this is not json")); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"valid entry for the wrong fingerprint", plain, Observers{}, func(t *testing.T, _ string, st *store.Store, fp string) {
			other := tinyScenario("cg", 2, network.GigE)
			data, err := encodeStored(other.Fingerprint(), Result{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(fp, data); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"valid container and head, truncated trace section", traced, Observers{}, func(t *testing.T, _ string, st *store.Store, fp string) {
			rewriteTrace(t, st, fp, func(tail []byte) []byte { return tail[:len(tail)-5] })
		}, false},
		{"trace section with a foreign magic line", traced, Observers{}, func(t *testing.T, _ string, st *store.Store, fp string) {
			rewriteTrace(t, st, fp, func(tail []byte) []byte {
				_, body, _ := bytes.Cut(tail, []byte{'\n'})
				return append([]byte("some-other-format v2\n"), body...)
			})
		}, false},
		{"replay head of the wrong type", replayed, Observers{}, func(t *testing.T, _ string, st *store.Store, fp string) {
			data, err := st.Peek(fp)
			if err != nil {
				t.Fatal(err)
			}
			var e, res map[string]json.RawMessage
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(e["result"], &res); err != nil || res["replay"] == nil {
				t.Fatalf("setup: entry has no replay head (%v)", err)
			}
			res["replay"] = json.RawMessage(`"damaged"`)
			if e["result"], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
			if data, err = json.Marshal(e); err != nil {
				t.Fatal(err)
			}
			if err := st.Put(fp, data); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"profile record with a garbage payload", plain, profiled, func(t *testing.T, _ string, st *store.Store, fp string) {
			if err := st.Put(profileKey+fp, []byte("{this is not json")); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"valid profile record for the wrong fingerprint", plain, profiled, func(t *testing.T, _ string, st *store.Store, fp string) {
			other := tinyScenario("cg", 2, network.GigE).Fingerprint()
			data, err := json.Marshal(storedRecord[obs.Profile]{Fingerprint: other, Record: &obs.Profile{Fingerprint: other}})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(profileKey+fp, data); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, fp := tc.sc, tc.sc.Fingerprint()
			dir := t.TempDir()
			seed := New(1)
			seed.SetStore(openStore(t, dir))
			seed.SetObservers(tc.o)
			want, err := seed.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir, seed.Store(), fp)

			r := New(1)
			r.SetStore(openStore(t, dir))
			r.SetObservers(tc.o)
			got, err := r.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			st := r.Stats()
			corrupt := 1
			if tc.cut {
				corrupt = 0
			}
			if st.StoreCorrupt != corrupt {
				t.Fatalf("StoreCorrupt = %d, want %d (%+v)", st.StoreCorrupt, corrupt, st)
			}
			if st.Simulated != 1 || st.StoreWrites != 1 || st.StoreHits != 0 {
				t.Fatalf("corrupt entry must simulate-and-rewrite: %+v", st)
			}
			if !sameServed(want, got) {
				t.Fatal("re-simulated result differs")
			}
			// The rewrite repaired the entry: a fresh Runner now hits.
			r3 := New(1)
			r3.SetStore(openStore(t, dir))
			r3.SetObservers(tc.o)
			again, err := r3.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if r3.Stats().StoreHits != 1 || r3.Stats().Simulated != 0 {
				t.Fatalf("repaired entry must serve: %+v", r3.Stats())
			}
			if !sameServed(want, again) {
				t.Fatal("repaired entry decodes to a different result")
			}
		})
	}
}

// sameServed compares two results of one scenario, profiles by their
// simulated section only: a profile's wall time varies run to run.
func sameServed(a, b Result) bool {
	if (a.Profile == nil) != (b.Profile == nil) {
		return false
	}
	if a.Profile != nil && !reflect.DeepEqual(a.Profile.Sim, b.Profile.Sim) {
		return false
	}
	a.Profile, b.Profile = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestStoreConcurrentRunnersSingleflight submits the same scenario to
// two Runner instances sharing one store directory at the same time —
// the cross-process sweep case. The per-fingerprint lock file must
// collapse the pair to one simulation, with the other side decoding the
// winner's entry. Run under -race in CI.
func TestStoreConcurrentRunnersSingleflight(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("ep", 2, network.TenGigE)

	runners := []*Runner{New(1), New(1)}
	for _, r := range runners {
		r.SetStore(openStore(t, dir))
	}
	results := make([]Result, len(runners))
	errs := make([]error, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			results[i], errs[i] = r.Run(sc)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("runner %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("concurrent runners disagree on the result")
	}
	simulated, served := 0, 0
	for _, r := range runners {
		st := r.Stats()
		simulated += st.Simulated
		served += st.StoreHits
	}
	if simulated != 1 {
		t.Fatalf("cross-process singleflight must simulate exactly once, simulated %d times", simulated)
	}
	if served != 1 {
		t.Fatalf("the losing runner must be served from the store, served=%d", served)
	}
}

// TestStoreTierWithProfiling pins the observer-record protocol: an entry
// persisted without a profile record cannot serve a profiling run — the
// run re-simulates with the observer attached and persists the record
// under its own key, after which profiled and unprofiled requests both
// hit.
func TestStoreTierWithProfiling(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("hpl", 2, network.TenGigE)

	plain := New(1)
	plain.SetStore(openStore(t, dir))
	if _, err := plain.Run(sc); err != nil {
		t.Fatal(err)
	}

	prof := New(1)
	prof.SetStore(openStore(t, dir))
	prof.SetObservers(Observers{Profile: true})
	res, err := prof.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	st := prof.Stats()
	if st.Simulated != 1 || st.StoreMisses != 1 || st.StoreWrites != 1 {
		t.Fatalf("unprofiled entry must not serve a profiling run: %+v", st)
	}
	if res.Profile == nil {
		t.Fatal("profiling run lost its profile")
	}

	// The entry and its record now serve profiling runs from disk,
	// profile included — the -profile warm replay is free.
	prof2 := New(1)
	prof2.SetStore(openStore(t, dir))
	prof2.SetObservers(Observers{Profile: true})
	res2, err := prof2.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if prof2.Stats().StoreHits != 1 || prof2.Stats().Simulated != 0 {
		t.Fatalf("stored profile record must serve a profiled run: %+v", prof2.Stats())
	}
	if res2.Profile == nil {
		t.Fatal("stored profile not decoded")
	}
	if !reflect.DeepEqual(res.Profile.Sim, res2.Profile.Sim) {
		t.Fatal("stored profile's simulated section differs")
	}
	if len(prof2.Profiles()) != 1 {
		t.Fatal("store-served profile must appear in Profiles() for the sidecar writer")
	}
}

// TestStoreTierWithCritPath mirrors the profiling protocol for the
// critical-path record, and checks that records accumulate: persisting a
// critpath report must not drop the profile record already stored.
func TestStoreTierWithCritPath(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("hpl", 2, network.TenGigE)

	prof := New(1)
	prof.SetStore(openStore(t, dir))
	prof.SetObservers(Observers{Profile: true})
	if _, err := prof.Run(sc); err != nil {
		t.Fatal(err)
	}

	cp := New(1)
	cp.SetStore(openStore(t, dir))
	cp.SetObservers(Observers{CritPath: true})
	res, err := cp.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Stats().Simulated != 1 {
		t.Fatal("entry without a critpath record must not serve a critpath run")
	}
	if res.CritPath == nil {
		t.Fatal("critpath run lost its report")
	}

	// Both records are stored next to the entry.
	both := New(1)
	both.SetStore(openStore(t, dir))
	both.SetObservers(Observers{Profile: true, CritPath: true})
	res2, err := both.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if both.Stats().StoreHits != 1 || both.Stats().Simulated != 0 {
		t.Fatalf("stored records must serve both observers: %+v", both.Stats())
	}
	if res2.Profile == nil || res2.CritPath == nil {
		t.Fatalf("a record was dropped: profile=%v critpath=%v", res2.Profile != nil, res2.CritPath != nil)
	}
	if len(both.Reports()) != 1 {
		t.Fatal("store-served report must appear in Reports() for the sidecar writer")
	}
}

// TestStoreTierWithChecking pins the audit rule: the simcheck audit
// validates a live simulation, so a checking run never decodes from the
// store — it simulates, audits, and rewrites the entry (leaving stored
// observer records under their own keys untouched).
func TestStoreTierWithChecking(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("hpl", 2, network.TenGigE)

	prof := New(1)
	prof.SetStore(openStore(t, dir))
	prof.SetObservers(Observers{Profile: true})
	if _, err := prof.Run(sc); err != nil {
		t.Fatal(err)
	}

	chk := New(1)
	chk.SetStore(openStore(t, dir))
	chk.SetObservers(Observers{Check: true})
	if _, err := chk.Run(sc); err != nil {
		t.Fatal(err)
	}
	st := chk.Stats()
	if st.StoreHits != 0 || st.Simulated != 1 || st.Audited != 1 {
		t.Fatalf("checking must bypass store reads and audit a live run: %+v", st)
	}
	if st.StoreMisses != 0 {
		t.Fatalf("bypassed reads must not count as misses: %+v", st)
	}
	if st.StoreWrites != 1 {
		t.Fatalf("checked execution must still persist: %+v", st)
	}

	// The checked rewrite left the stored profile record in place.
	prof2 := New(1)
	prof2.SetStore(openStore(t, dir))
	prof2.SetObservers(Observers{Profile: true})
	res, err := prof2.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if prof2.Stats().StoreHits != 1 || res.Profile == nil {
		t.Fatalf("checked rewrite dropped the stored profile: %+v", prof2.Stats())
	}
}

// TestStoreInMemoryTierWins: duplicate submissions on one Runner join
// the in-memory entry and never touch the disk tier again.
func TestStoreInMemoryTierWins(t *testing.T) {
	r := New(1)
	r.SetStore(openStore(t, t.TempDir()))
	sc := tinyScenario("hpl", 2, network.GigE)
	first, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Hits != 1 {
		t.Fatalf("second submission must hit the memory tier: %+v", st)
	}
	if st.StoreMisses != 1 || st.StoreHits != 0 {
		t.Fatalf("disk tier must see exactly the first submission: %+v", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memory-tier hit returned a different result")
	}
}

// TestStoreFingerprintCoverage guards the store against silent key
// collisions: every axis that changes a simulation's outcome — fault
// plans and their seeds, workload parameters, network configuration,
// cluster shape, observer-relevant switches — must move the fingerprint,
// and identical configurations must round-trip to the identical key.
func TestStoreFingerprintCoverage(t *testing.T) {
	base := func() Scenario { return tinyScenario("hpl", 2, network.GigE) }
	variants := map[string]func() Scenario{
		"base": base,
		"fault plan seed 1": func() Scenario {
			s := base()
			s.Cluster.Faults = &faults.Plan{Seed: 1, StragglerFraction: 0.25, StragglerFactor: 1.5}
			return s
		},
		"fault plan seed 2": func() Scenario {
			s := base()
			s.Cluster.Faults = &faults.Plan{Seed: 2, StragglerFraction: 0.25, StragglerFactor: 1.5}
			return s
		},
		"fault plan different class": func() Scenario {
			s := base()
			s.Cluster.Faults = &faults.Plan{Seed: 1, MessageLossProb: 0.01}
			return s
		},
		"fault plan different checkpoint interval": func() Scenario {
			s := base()
			s.Cluster.Faults = &faults.Plan{Seed: 1, CrashMTBF: 3600, CheckpointInterval: 60}
			return s
		},
		"workload scale": func() Scenario {
			s := base()
			s.Config.Scale = 0.02
			return s
		},
		"workload gpu ratio": func() Scenario {
			s := base()
			s.Config.GPUWorkRatio = 0.5
			return s
		},
		"workload half precision": func() Scenario {
			s := base()
			s.Config.HalfPrecision = true
			return s
		},
		"workload weak scaling": func() Scenario {
			s := base()
			s.Config.WeakScaling = true
			return s
		},
		"other workload": func() Scenario {
			s := base()
			s.Workload = "cg"
			return s
		},
		"network 10GbE": func() Scenario { return tinyScenario("hpl", 2, network.TenGigE) },
		"network custom latency": func() Scenario {
			s := base()
			s.Cluster.Network.Latency *= 2
			return s
		},
		"network custom throughput": func() Scenario {
			s := base()
			s.Cluster.Network.Throughput *= 2
			return s
		},
		"more nodes": func() Scenario { return tinyScenario("hpl", 4, network.GigE) },
		"rank density": func() Scenario {
			s := base()
			s.Cluster.RanksPerNode = 2
			return s
		},
		"traced": func() Scenario {
			s := base()
			s.Cluster.Traced = true
			return s
		},
		"gpudirect": func() Scenario {
			s := base()
			s.Cluster.GPUDirect = true
			return s
		},
		"colocated job": func() Scenario {
			s := base()
			s.Colocated = []Job{{Workload: "hpl-cpu", RanksPerNode: 4, Config: workloads.Config{Scale: 0.01}}}
			return s
		},
	}
	seen := map[string]string{}
	for name, mk := range variants {
		fp := mk().Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision between %q and %q:\n%s", prev, name, fp)
		}
		seen[fp] = name
		// Identical construction must round-trip to the identical key —
		// the property that makes cross-process reuse possible at all.
		if mk().Fingerprint() != fp {
			t.Fatalf("%q does not fingerprint deterministically", name)
		}
	}
}

// TestStoreWarmSpeedGuard is the CI perf guard for the tentpole claim: a
// warm store turns a simulation into pure decode, and on the reference
// scenario the decode must be at least 10x faster than simulating.
func TestStoreWarmSpeedGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("timing guard: set BENCH_GUARD=1 to run")
	}
	dir := t.TempDir()
	sc := tinyScenario("cg", 8, network.TenGigE)
	sc.Config.Scale = 0.04

	cold := New(1)
	cold.SetStore(openStore(t, dir))
	start := time.Now()
	if _, err := cold.Run(sc); err != nil {
		t.Fatal(err)
	}
	coldWall := time.Since(start)

	// Best of five warm reads, each through a fresh Runner (cold memory
	// tier, warm disk tier) — the cross-process regeneration case.
	warmWall := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		r := New(1)
		r.SetStore(openStore(t, dir))
		start = time.Now()
		if _, err := r.Run(sc); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < warmWall {
			warmWall = d
		}
		if r.Stats().Simulated != 0 {
			t.Fatal("guard invalid: warm read simulated")
		}
	}
	ratio := float64(coldWall) / float64(warmWall)
	t.Logf("cold %v, warm %v: %.1fx", coldWall, warmWall, ratio)
	if ratio < 10 {
		t.Fatalf("warm store read only %.1fx faster than simulating (want >= 10x)", ratio)
	}
}

// BenchmarkStoreRoundTrip pins the store overhead added to the cold
// path: encode + append + read + verify + decode of one real result per
// iteration, each under its own key, as a cold regeneration writes.
func BenchmarkStoreRoundTrip(b *testing.B) {
	sc := tinyScenario("hpl", 2, network.TenGigE)
	res, err := Execute(sc, Observers{})
	if err != nil {
		b.Fatal(err)
	}
	fp := sc.Fingerprint()
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := encodeStored(fp, res)
		if err != nil {
			b.Fatal(err)
		}
		key := fmt.Sprint(fp, i)
		if err := st.Put(key, data); err != nil {
			b.Fatal(err)
		}
		back, err := st.Get(key)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeStored(back, fp); err != nil {
			b.Fatal(err)
		}
	}
}
