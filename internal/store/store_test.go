package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
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

// TestLockProtocol pins the singleflight wait: a second Lock on a held
// key returns only after the holder releases it, while a lock on another
// key is independent of it.
func TestLockProtocol(t *testing.T) {
	s := open(t, 1)
	rel, err := s.Lock("k")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.Lock("other")
	if err != nil {
		t.Fatalf("lock on a different key: %v", err)
	}
	rel2()

	var released atomic.Bool
	got := make(chan error, 1)
	go func() {
		rel3, err := s.Lock("k")
		if err == nil {
			if !released.Load() {
				err = errors.New("second Lock returned while the holder still held the key")
			}
			rel3()
		}
		got <- err
	}()
	time.Sleep(3 * pollInterval) // let the waiter find the lock held
	released.Store(true)
	rel()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if _, err := os.Lstat(s.lockPath("k")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lock file left after release: %v", err)
	}
}

// TestStaleLockIsStolen: a lock file older than the stale window belongs
// to a holder that died without releasing it, so the next Lock steals it
// instead of waiting.
func TestStaleLockIsStolen(t *testing.T) {
	s := open(t, 1)
	if _, err := s.Lock("k"); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-staleLockAfter - time.Minute)
	if err := os.Chtimes(s.lockPath("k"), old, old); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Lock("k")
	if err != nil {
		t.Fatalf("stale lock not stolen: %v", err)
	}
	rel()
}

// TestLockTimesOut: a live holder that outlasts the wait bound makes
// Lock give up with ErrLockTimeout, leaving the holder's lock in place.
func TestLockTimesOut(t *testing.T) {
	defer func(d time.Duration) { lockWait = d }(lockWait)
	lockWait = 5 * pollInterval
	s := open(t, 1)
	rel, err := s.Lock("k")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := s.Lock("k"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("Lock on a held key = %v, want ErrLockTimeout", err)
	}
	if _, err := os.Lstat(s.lockPath("k")); err != nil {
		t.Fatalf("the holder's lock file is gone: %v", err)
	}
}

// TestLockRefusedWithoutWaiting: when no lock file can be created —
// here a regular file sits where the key's shard directory goes, which
// refuses every create the way a read-only or full store does, even
// under root — Lock returns the filesystem's error at once instead of
// waiting for a holder that does not exist. Put fails the same way.
func TestLockRefusedWithoutWaiting(t *testing.T) {
	s := open(t, 1)
	shard, _ := s.address("k")
	if err := os.WriteFile(shard, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// No entry can exist under a file: a lookup is a plain miss.
	if _, err := s.Get("k"); !errors.Is(err, ErrMiss) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrMiss", err)
	}
	if c := s.Counters(); c.Misses != 1 || c.Corrupt != 0 {
		t.Fatalf("counters after a lookup under a file: %+v, want 1 miss and 0 corrupt", c)
	}
	if _, err := s.Lock("k"); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("Lock = %v, want the filesystem's ENOTDIR", err)
	}
	if err := s.Put("k", []byte("x")); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("Put = %v, want the filesystem's ENOTDIR", err)
	}
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
