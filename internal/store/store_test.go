package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, schema int) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), schema)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, 1)
	payload := []byte(`{"hello":"world"}`)
	if err := s.Put("key-a", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("key-a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload changed in round trip: %q", got)
	}
	c := s.Counters()
	if c.Hits != 1 || c.Writes != 1 || c.Misses != 0 || c.Corrupt != 0 {
		t.Fatalf("counters after hit: %+v", c)
	}
}

func TestGetMissOnAbsentKey(t *testing.T) {
	s := open(t, 1)
	if _, err := s.Get("never-written"); !errors.Is(err, ErrMiss) {
		t.Fatalf("want ErrMiss, got %v", err)
	}
	if c := s.Counters(); c.Misses != 1 || c.Corrupt != 0 {
		t.Fatalf("counters after miss: %+v", c)
	}
}

// entryFile locates the single *.entry file under the store directory.
func entryFile(t *testing.T, s *Store) string {
	t.Helper()
	var path string
	err := filepath.Walk(s.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(p, ".entry") {
			path = p
		}
		return err
	})
	if err != nil || path == "" {
		t.Fatalf("no entry file found under %s (err %v)", s.Dir(), err)
	}
	return path
}

// entryDamage mutates a schema-7 entry file every way the container
// format can detect.
var entryDamage = []struct {
	name string
	mut  func(data []byte) []byte
}{
	{"zero-byte entry", func([]byte) []byte { return nil }},
	{"truncated payload", func(d []byte) []byte { return d[:len(d)-4] }},
	{"truncated mid-header", func(d []byte) []byte { return d[:10] }},
	{"flipped payload byte", func(d []byte) []byte {
		out := append([]byte(nil), d...)
		out[len(out)-2] ^= 0x40
		return out
	}},
	{"wrong container version", func(d []byte) []byte {
		return bytes.Replace(d, []byte("clustersoc-store v1 "), []byte("clustersoc-store v9 "), 1)
	}},
	{"wrong schema tag", func(d []byte) []byte {
		return bytes.Replace(d, []byte("schema=7"), []byte("schema=8"), 1)
	}},
	{"no header at all", func([]byte) []byte { return []byte("free-form garbage\nwithout a header") }},
}

// TestCorruptEntriesReadAsCorrupt damages one stored entry every way the
// container format can detect — truncation, zero bytes, a flipped
// payload bit, a wrong container version, a wrong schema tag, a missing
// header — and requires Get to answer ErrCorrupt (a miss that callers
// repair by re-simulating and rewriting) rather than serving bad bytes.
func TestCorruptEntriesReadAsCorrupt(t *testing.T) {
	payload := []byte(`{"result":42}`)
	for _, tc := range entryDamage {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, 7)
			if err := s.Put("the-key", payload); err != nil {
				t.Fatal(err)
			}
			path := entryFile(t, s)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated := tc.mut(data)
			if bytes.Equal(mutated, data) {
				t.Fatal("mutation did not change the entry — test is vacuous")
			}
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("the-key"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			if c := s.Counters(); c.Corrupt != 1 {
				t.Fatalf("corrupt counter not bumped: %+v", c)
			}
			// The repair path: rewrite and read back.
			if err := s.Put("the-key", payload); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("the-key")
			if err != nil {
				t.Fatalf("entry not repaired by rewrite: %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("repaired payload wrong: %q", got)
			}
		})
	}
}

func TestPutReplacesEntryAtomically(t *testing.T) {
	s := open(t, 1)
	if err := s.Put("k", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("got %q after overwrite", got)
	}
	// No staging litter left behind.
	err = filepath.Walk(s.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.Contains(filepath.Base(p), ".staging-") {
			t.Fatalf("staging file left behind: %s", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchemaReAddressesKeys pins the version-bump rule: the schema
// participates in the content address, so entries written under one
// schema are unreachable — not corrupt, plainly absent — under another.
func TestSchemaReAddressesKeys(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", []byte("v1 payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("k"); !errors.Is(err, ErrMiss) {
		t.Fatalf("schema 2 should miss schema 1's entry, got %v", err)
	}
	if got, err := s1.Get("k"); err != nil || string(got) != "v1 payload" {
		t.Fatalf("schema 1 entry disturbed: %q, %v", got, err)
	}
}

func TestInvalidateRemovesAndCountsCorrupt(t *testing.T) {
	s := open(t, 1)
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s.Invalidate("k")
	if _, err := s.Get("k"); !errors.Is(err, ErrMiss) {
		t.Fatalf("invalidated entry should miss, got %v", err)
	}
	if c := s.Counters(); c.Corrupt != 1 {
		t.Fatalf("corrupt counter after Invalidate: %+v", c)
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	s := open(t, 1)
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Peek("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Peek("absent"); !errors.Is(err, ErrMiss) {
		t.Fatalf("want ErrMiss, got %v", err)
	}
	if c := s.Counters(); c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("Peek must not count: %+v", c)
	}
}

func TestLockProtocol(t *testing.T) {
	s := open(t, 1)
	rel, ok := s.TryLock("k")
	if !ok {
		t.Fatal("first TryLock must succeed")
	}
	if _, ok := s.TryLock("k"); ok {
		t.Fatal("second TryLock must fail while held")
	}
	// A held lock on one key does not block another key.
	rel2, ok := s.TryLock("other")
	if !ok {
		t.Fatal("lock on a different key must succeed")
	}
	rel2()

	s.SetPollInterval(time.Millisecond)
	if s.WaitUnlocked("k", time.Now().Add(20*time.Millisecond)) {
		t.Fatal("WaitUnlocked must time out while the lock is held")
	}
	rel()
	if !s.WaitUnlocked("k", time.Now().Add(time.Second)) {
		t.Fatal("WaitUnlocked must observe the release")
	}
	if rel3, ok := s.TryLock("k"); !ok {
		t.Fatal("TryLock must succeed after release")
	} else {
		rel3()
	}
}

func TestStaleLockIsStolen(t *testing.T) {
	s := open(t, 1)
	if _, ok := s.TryLock("k"); !ok {
		t.Fatal("setup lock failed")
	}
	// The "holder" dies without releasing. With a zero stale age the
	// next contender steals the lock instead of waiting forever.
	s.SetStaleLockAfter(0)
	rel, ok := s.TryLock("k")
	if !ok {
		t.Fatal("stale lock must be stolen")
	}
	rel()
}

func TestSnapshotIsNonDeterministicStoreScope(t *testing.T) {
	s := open(t, 1)
	s.Put("k", []byte("x"))
	s.Get("k")
	s.Get("absent")
	snap := s.Snapshot()
	want := map[string]float64{
		"store.hit":     1,
		"store.miss":    1,
		"store.write":   1,
		"store.corrupt": 0,
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
			t.Fatalf("%s must be flagged non-deterministic: disk state varies run to run", name)
		}
	}
	if len(snap.Deterministic().Metrics) != 0 {
		t.Fatal("store metrics must all be stripped from deterministic snapshots")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", 1); err == nil {
		t.Fatal("Open(\"\") must fail")
	}
}

// TestConfigSettersSafeUnderConcurrentUse pins the "safe for concurrent
// use" contract on the lock-protocol knobs: a long-running server
// reconfigures the shared Store while request goroutines are inside
// TryLock/WaitUnlocked. Before the knobs became atomic this was a data
// race the -race CI job catches.
func TestConfigSettersSafeUnderConcurrentUse(t *testing.T) {
	s := open(t, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				d := time.Duration(j%7+1) * time.Millisecond
				s.SetLockWait(d)
				s.SetPollInterval(d)
				s.SetStaleLockAfter(d)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := "concurrent-key"
			for j := 0; j < 200; j++ {
				if rel, ok := s.TryLock(key); ok {
					rel()
				}
				s.WaitUnlocked(key, time.Now().Add(-time.Second))
				_ = s.LockWait()
				_ = s.PollInterval()
				_ = s.StaleLockAfter()
			}
		}(i)
	}
	// Let the TryLock/WaitUnlocked goroutines finish, then stop the
	// reconfiguration loops.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(stop)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent setter/lock exercise did not finish")
	}
	if s.LockWait() <= 0 || s.PollInterval() <= 0 || s.StaleLockAfter() <= 0 {
		t.Fatal("configured durations lost")
	}
}

// TestReadOnlyModeDeclinesMutations pins the read-only contract: reads
// serve as usual, Put fails with ErrReadOnly, TryLock refuses (without
// creating lock files), and Invalidate leaves the entry on disk.
func TestReadOnlyModeDeclinesMutations(t *testing.T) {
	s := open(t, 1)
	payload := []byte(`{"k":1}`)
	if err := s.Put("ro-key", payload); err != nil {
		t.Fatal(err)
	}
	s.SetReadOnly(true)
	if !s.ReadOnly() {
		t.Fatal("ReadOnly not reported")
	}
	got, err := s.Get("ro-key")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read-only Get = %q, %v; want the stored payload", got, err)
	}
	if err := s.Put("ro-key2", payload); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put error = %v, want ErrReadOnly", err)
	}
	if _, ok := s.TryLock("ro-key2"); ok {
		t.Fatal("read-only TryLock must refuse")
	}
	if s.Locked("ro-key2") {
		t.Fatal("read-only TryLock must not leave a lock file behind")
	}
	s.Invalidate("ro-key")
	if _, err := s.Get("ro-key"); err != nil {
		t.Fatalf("read-only Invalidate must leave the entry: %v", err)
	}
	s.SetReadOnly(false)
	if err := s.Put("ro-key2", payload); err != nil {
		t.Fatalf("writable again: %v", err)
	}
}

// TestLockedReportsLockFilePresence pins the Locked probe the run-plane
// uses to tell "live holder" from "filesystem refuses locks".
func TestLockedReportsLockFilePresence(t *testing.T) {
	s := open(t, 1)
	if s.Locked("k") {
		t.Fatal("no lock taken yet")
	}
	rel, ok := s.TryLock("k")
	if !ok {
		t.Fatal("TryLock failed on a fresh store")
	}
	if !s.Locked("k") {
		t.Fatal("Locked must see the held lock")
	}
	rel()
	if s.Locked("k") {
		t.Fatal("Locked must see the release")
	}
}
