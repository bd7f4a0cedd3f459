package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	s2, err := Open(s.Dir(), s.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return s2
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
	if got, err := reopen(t, s).Get("key-a"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("a Store opened later reads %q, %v", got, err)
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

// segFile locates the single segment file under dir.
func segFile(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.pack"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments under %s: %v (err %v), want exactly one", dir, segs, err)
	}
	return segs[0]
}

// entryDamage mutates a schema-7 segment holding one record every way a
// damaged or cut segment can look, with what a Store opened afterwards
// reads: ErrCorrupt while the header still names the key, and ErrMiss
// for a cut record, a record of another schema, or bytes that frame no
// record at all.
var entryDamage = []struct {
	name string
	mut  func(data []byte) []byte
	want error
}{
	{"zero-byte entry", func([]byte) []byte { return nil }, ErrMiss},
	{"truncated payload", func(d []byte) []byte { return d[:len(d)-4] }, ErrMiss},
	{"truncated mid-header", func(d []byte) []byte { return d[:10] }, ErrMiss},
	{"flipped payload byte", func(d []byte) []byte {
		out := append([]byte(nil), d...)
		out[len(out)-2] ^= 0x40
		return out
	}, ErrCorrupt},
	{"wrong container version", func(d []byte) []byte {
		return bytes.Replace(d, []byte("clustersoc-store v2 "), []byte("clustersoc-store v9 "), 1)
	}, ErrCorrupt},
	{"wrong schema tag", func(d []byte) []byte {
		return bytes.Replace(d, []byte("schema=7"), []byte("schema=8"), 1)
	}, ErrMiss},
	{"no header at all", func([]byte) []byte { return []byte("free-form garbage\nwithout a header") }, ErrMiss},
	{"unparseable length", func(d []byte) []byte {
		return bytes.Replace(d, []byte("len="), []byte("len=x"), 1)
	}, ErrCorrupt},
}

// TestCorruptEntriesReadAsCorrupt damages a stored record every way
// entryDamage lists and requires that no damage serves bad bytes. The
// Store that indexed the record reads every damage as ErrCorrupt; a
// Store opened afterwards reads ErrCorrupt where the header still names
// the key and a plain miss where it does not, and its rewrite repairs
// the key for itself and for every Store opened after it.
func TestCorruptEntriesReadAsCorrupt(t *testing.T) {
	payload := []byte(`{"result":42}`)
	for _, tc := range entryDamage {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, 7)
			if err := s.Put("the-key", payload); err != nil {
				t.Fatal(err)
			}
			path := segFile(t, s.Dir())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated := tc.mut(data)
			if bytes.Equal(mutated, data) {
				t.Fatal("mutation did not change the segment — test is vacuous")
			}
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("the-key"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("the writing Store: want ErrCorrupt, got %v", err)
			}

			fresh := reopen(t, s)
			if _, err := fresh.Get("the-key"); !errors.Is(err, tc.want) {
				t.Fatalf("a Store opened after the damage: want %v, got %v", tc.want, err)
			}
			want := Counters{Misses: 1}
			if tc.want == ErrCorrupt {
				want = Counters{Corrupt: 1}
			}
			if c := fresh.Counters(); c != want {
				t.Fatalf("counters %+v, want %+v", c, want)
			}
			// The repair path: rewrite and read back, here and later.
			if err := fresh.Put("the-key", payload); err != nil {
				t.Fatal(err)
			}
			for _, st := range []*Store{fresh, reopen(t, s)} {
				got, err := st.Get("the-key")
				if err != nil {
					t.Fatalf("entry not repaired by rewrite: %v", err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("repaired payload wrong: %q", got)
				}
			}
		})
	}
}

// TestPutReplacesEntryAtomically: a re-put supersedes the key's record
// in this Store and in a Store opened later, and the writes leave one
// segment and nothing else behind.
func TestPutReplacesEntryAtomically(t *testing.T) {
	s := open(t, 1)
	if err := s.Put("k", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, reopen(t, s)} {
		got, err := st.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "second" {
			t.Fatalf("got %q after overwrite", got)
		}
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), "seg-") || !strings.HasSuffix(ents[0].Name(), ".pack") {
		t.Fatalf("store directory holds %v, want one segment", ents)
	}
}

// TestIdenticalPutAppendsNothing: re-putting the bytes a key already
// serves leaves the segment as it is, while a key whose record is
// damaged gets the same bytes appended, which repairs it.
func TestIdenticalPutAppendsNothing(t *testing.T) {
	s := open(t, 1)
	if err := s.Put("k", []byte("same")); err != nil {
		t.Fatal(err)
	}
	path := segFile(t, s.Dir())
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("same")); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("an identical re-put changed the segment (%d -> %d bytes, %v)", len(before), len(after), err)
	}
	if c := s.Counters(); c.Writes != 2 {
		t.Fatalf("counters %+v: both Puts succeeded", c)
	}

	damaged := append([]byte(nil), before...)
	damaged[len(damaged)-1] ^= 0x01
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("same")); err != nil {
		t.Fatal(err)
	}
	if got, err := reopen(t, s).Get("k"); err != nil || string(got) != "same" {
		t.Fatalf("the re-put over a damaged record: %q, %v", got, err)
	}
}

func TestPutRefusesEmptyPayload(t *testing.T) {
	s := open(t, 1)
	if err := s.Put("k", nil); err == nil {
		t.Fatal("Put of an empty payload must fail: an empty record is a tombstone")
	}
	if c := s.Counters(); c.Writes != 0 {
		t.Fatalf("counters %+v: a refused Put is no write", c)
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

// TestOtherSchemaRecordsAreSkipped: stores of two schemas share one
// directory. A Store opened later indexes only its own schema's records
// and counts nothing for the others.
func TestOtherSchemaRecordsAreSkipped(t *testing.T) {
	dir := t.TempDir()
	for schema := 1; schema <= 2; schema++ {
		s, err := Open(dir, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"k", fmt.Sprint("only-schema-", schema)} {
			if err := s.Put(k, []byte(fmt.Sprint(k, " under schema ", schema))); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.index) != 2 {
		t.Fatalf("index holds %d records, want schema 2's 2", len(s.index))
	}
	if got, err := s.Get("k"); err != nil || string(got) != "k under schema 2" {
		t.Fatalf("Get(k) = %q, %v", got, err)
	}
	if _, err := s.Get("only-schema-1"); !errors.Is(err, ErrMiss) {
		t.Fatalf("schema 1's key: want ErrMiss, got %v", err)
	}
	if c := s.Counters(); c != (Counters{Hits: 1, Misses: 1}) {
		t.Fatalf("counters %+v: another schema's records count nothing", c)
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

// TestTombstoneHidesKeyFromLaterStores: Invalidate persists. A Store
// opened after it misses the key, and a newer record brings it back for
// every Store opened after that.
func TestTombstoneHidesKeyFromLaterStores(t *testing.T) {
	s := open(t, 1)
	if err := s.Put("k", []byte("bad")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("other", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	s.Invalidate("k")
	later := reopen(t, s)
	if _, err := later.Get("k"); !errors.Is(err, ErrMiss) {
		t.Fatalf("a Store opened after the tombstone: want ErrMiss, got %v", err)
	}
	if c := later.Counters(); c != (Counters{Misses: 1}) {
		t.Fatalf("counters %+v: a tombstone reads as a plain miss", c)
	}
	if got, err := later.Get("other"); err != nil || string(got) != "kept" {
		t.Fatalf("the tombstone disturbed another key: %q, %v", got, err)
	}
	if err := later.Put("k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	if got, err := reopen(t, s).Get("k"); err != nil || string(got) != "good" {
		t.Fatalf("the record after the tombstone: %q, %v", got, err)
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

// TestPeekFindsAnotherStoresRecords: Get answers from the index Open
// built, and Peek rescans, so it finds what another Store on the
// directory appended since, in its segment or in a new one.
func TestPeekFindsAnotherStoresRecords(t *testing.T) {
	a := open(t, 1)
	if err := a.Put("first", []byte("1")); err != nil {
		t.Fatal(err)
	}
	b := reopen(t, a)
	if err := a.Put("grown", []byte("2")); err != nil {
		t.Fatal(err)
	}
	c := reopen(t, a)
	if err := c.Put("appeared", []byte("3")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("grown"); !errors.Is(err, ErrMiss) {
		t.Fatalf("Get of a record appended after Open: want ErrMiss, got %v", err)
	}
	for k, want := range map[string]string{"first": "1", "grown": "2", "appeared": "3"} {
		if got, err := b.Peek(k); err != nil || string(got) != want {
			t.Fatalf("Peek(%q) = %q, %v, want %q", k, got, err, want)
		}
	}
}

// TestFailedAppendIsCutBack: an append whose write fails part-way (a
// full disk) returns the error and cuts the segment back to its last
// whole record, so the next append lands whole after it and a Store
// opened later serves every record but the failed one.
func TestFailedAppendIsCutBack(t *testing.T) {
	s := open(t, 1)
	if err := s.Put("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	path := segFile(t, s.Dir())
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s.writeAt = func(f *os.File, b []byte, off int64) (int, error) {
		n, err := f.WriteAt(b[:len(b)/2], off)
		if err == nil {
			err = syscall.ENOSPC
		}
		return n, err
	}
	if err := s.Put("b", []byte("lost to a full disk")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put = %v, want the write's ENOSPC", err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() != before.Size() {
		t.Fatalf("segment not cut back to its last whole record (%v)", err)
	}
	s.writeAt = (*os.File).WriteAt
	if err := s.Put("c", []byte("third")); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Writes != 2 {
		t.Fatalf("counters %+v: the failed Put is no write", c)
	}
	later := reopen(t, s)
	for k, want := range map[string]string{"a": "first", "c": "third"} {
		if got, err := later.Get(k); err != nil || string(got) != want {
			t.Fatalf("Get(%q) = %q, %v, want %q", k, got, err, want)
		}
	}
	if _, err := later.Get("b"); !errors.Is(err, ErrMiss) {
		t.Fatalf("the failed record: want ErrMiss, got %v", err)
	}
}

// TestConcurrentUseOfOneStore puts, gets and peeks from several
// goroutines on each of two Stores sharing one directory, so one Store's
// index, segment list and appends are shared while the other's appends
// land in the rescans. Every read returns the bytes put, and a Store
// opened afterwards serves every key.
func TestConcurrentUseOfOneStore(t *testing.T) {
	a := open(t, 1)
	b := reopen(t, a)
	payload := func(k string) []byte { return []byte(k + " payload") }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for _, st := range []*Store{a, b} {
			wg.Add(1)
			go func(st *Store, g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					k := fmt.Sprint("k", (g*50+i)%60)
					if err := st.Put(k, payload(k)); err != nil {
						t.Error(err)
						return
					}
					for _, read := range []func(string) ([]byte, error){st.Get, st.Peek} {
						if got, err := read(k); err != nil || !bytes.Equal(got, payload(k)) {
							t.Errorf("read(%q) = %q, %v", k, got, err)
							return
						}
					}
				}
			}(st, g)
		}
	}
	wg.Wait()
	later := reopen(t, a)
	for i := 0; i < 60; i++ {
		k := fmt.Sprint("k", i)
		if got, err := later.Get(k); err != nil || !bytes.Equal(got, payload(k)) {
			t.Fatalf("a Store opened afterwards: Get(%q) = %q, %v", k, got, err)
		}
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

// TestSecondStoreWaitsThenFindsRecord is the cross-process singleflight
// on one directory: B's Lock waits while A holds the key, and once A has
// appended its record and released, B's quiet re-check finds it.
func TestSecondStoreWaitsThenFindsRecord(t *testing.T) {
	a := open(t, 1)
	b := reopen(t, a)
	relA, err := a.Lock("k")
	if err != nil {
		t.Fatal(err)
	}
	var released atomic.Bool
	got := make(chan error, 1)
	go func() {
		relB, err := b.Lock("k")
		if err != nil {
			got <- err
			return
		}
		defer relB()
		if !released.Load() {
			got <- errors.New("B's Lock returned while A held the key")
			return
		}
		data, err := b.Peek("k")
		if err == nil && string(data) != "from A" {
			err = errors.New("B found " + string(data))
		}
		got <- err
	}()
	time.Sleep(3 * pollInterval) // let B find the lock held
	if err := a.Put("k", []byte("from A")); err != nil {
		t.Fatal(err)
	}
	released.Store(true)
	relA()
	if err := <-got; err != nil {
		t.Fatalf("B after A's release: %v", err)
	}
}

// TestStaleLockIsStolen: a lock whose holder's segment has been idle
// longer than the stale window belongs to a holder that died without
// releasing it, so the next Lock steals it at once instead of waiting,
// whether from the same Store or from another one on the directory.
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

	defer func(d time.Duration) { lockWait = d }(lockWait)
	lockWait = 5 * pollInterval
	if _, err := s.Lock("k2"); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(segFile(t, s.Dir()), old, old); err != nil {
		t.Fatal(err)
	}
	rel, err = reopen(t, s).Lock("k2")
	if err != nil {
		t.Fatalf("another Store did not steal a lock whose segment is idle for 11 min: %v", err)
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

// TestLockRefusedWithoutWaiting: when no segment can be created — here a
// regular file sits where the store's directory was, which refuses every
// create the way a read-only or full store does, even under root — Lock
// returns the filesystem's error at once instead of waiting for a holder
// that does not exist, and Put fails the same way. Records the Store
// indexed before still serve.
func TestLockRefusedWithoutWaiting(t *testing.T) {
	w := open(t, 1)
	if err := w.Put("kept", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s := reopen(t, w)
	if err := os.RemoveAll(s.Dir()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Dir(), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("kept"); err != nil || string(got) != "x" {
		t.Fatalf("an indexed record must still serve: %q, %v", got, err)
	}
	// Nothing else can be found: a lookup is a plain miss.
	if _, err := s.Get("k"); !errors.Is(err, ErrMiss) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrMiss", err)
	}
	if _, err := s.Peek("k"); !errors.Is(err, ErrMiss) {
		t.Fatalf("Peek = %v, want ErrMiss", err)
	}
	if c := s.Counters(); c.Misses != 1 || c.Corrupt != 0 {
		t.Fatalf("counters after a lookup: %+v, want 1 miss and 0 corrupt", c)
	}
	if _, err := s.Lock("k"); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("Lock = %v, want the filesystem's ENOTDIR", err)
	}
	if err := s.Put("k", []byte("x")); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("Put = %v, want the filesystem's ENOTDIR", err)
	}
}

// TestReleasedLocksLeaveNoEmptySegment: a Store that takes and releases
// locks but appends nothing (a checked run over a warm store, whose
// re-puts are all identical) leaves no segment behind for every later
// Open to list. Its next Lock or Put creates a fresh segment, and the
// segments it indexed meanwhile keep serving.
func TestReleasedLocksLeaveNoEmptySegment(t *testing.T) {
	s := open(t, 1)
	segs := func() []string {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(s.Dir(), "seg-*.pack"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rel1, err := s.Lock("a")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.Lock("b")
	if err != nil {
		t.Fatal(err)
	}
	rel1()
	if len(segs()) != 1 {
		t.Fatalf("segment gone while a lock is still held: %v", segs())
	}
	rel2()
	if m := segs(); len(m) != 0 {
		t.Fatalf("locking and releasing with nothing appended left %v", m)
	}

	other := reopen(t, s)
	if err := other.Put("theirs", []byte("t")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Peek("theirs"); err != nil || string(got) != "t" {
		t.Fatalf("Peek of another Store's record = %q, %v", got, err)
	}
	rel, err := s.Lock("mine")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("mine", []byte("m")); err != nil {
		t.Fatal(err)
	}
	rel()
	if got, err := s.Get("mine"); err != nil || string(got) != "m" {
		t.Fatalf("Get of this Store's record = %q, %v", got, err)
	}
	if got, err := s.Get("theirs"); err != nil || string(got) != "t" {
		t.Fatalf("Get of another Store's record = %q, %v", got, err)
	}
	if m := segs(); len(m) != 2 {
		t.Fatalf("segments %v, want the other Store's and this one's new one", m)
	}
	// An identical re-put appends nothing, so it leaves nothing either.
	again := reopen(t, s)
	rel, err = again.Lock("mine")
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Put("mine", []byte("m")); err != nil {
		t.Fatal(err)
	}
	rel()
	if m := segs(); len(m) != 2 {
		t.Fatalf("a run of identical re-puts left segments %v, want 2", m)
	}
}

// TestConcurrentLocksKeepEveryRecord takes and releases locks from
// several goroutines of one Store at once, appending under some of them
// and nothing under others, the way the runner's workers do, so the
// segment is removed and created again while other locks are being
// taken. Every appended record survives, and no segment is left empty.
func TestConcurrentLocksKeepEveryRecord(t *testing.T) {
	s := open(t, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := fmt.Sprint("k", g, "-", i)
				rel, err := s.Lock(k)
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := s.Put(k, []byte(k)); err != nil {
						t.Error(err)
					}
				}
				rel()
			}
		}(g)
	}
	wg.Wait()
	later := reopen(t, s)
	for g := 0; g < 4; g++ {
		for i := 0; i < 40; i += 3 {
			k := fmt.Sprint("k", g, "-", i)
			if got, err := later.Get(k); err != nil || string(got) != k {
				t.Fatalf("a Store opened afterwards: Get(%q) = %q, %v", k, got, err)
			}
		}
	}
	segs, err := filepath.Glob(filepath.Join(s.Dir(), "seg-*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if info, err := os.Stat(seg); err != nil || info.Size() == 0 {
			t.Errorf("segment %s left empty (%v)", seg, err)
		}
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
