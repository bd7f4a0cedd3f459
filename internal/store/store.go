// Package store is a persistent, content-addressed result store: a
// directory of immutable entries keyed by an arbitrary string key (the
// run-plane uses runner.Scenario fingerprints) plus a caller-declared
// schema version. Simulations are bit-deterministic, so an entry written
// once is valid forever — the store never invalidates; schema changes are
// handled by bumping the version, which re-addresses every key.
//
// Three properties are load-bearing:
//
//   - Atomic writes. Put stages the entry in a temp file in the target
//     directory and renames it into place, so readers only ever observe
//     absent or complete entries — never a half-written one — and
//     concurrent writers of the same (deterministic, identical) entry
//     simply race to install equal bytes.
//
//   - Corruption-tolerant reads. Every entry carries a header with the
//     container version, schema version, payload length, and a SHA-256
//     payload digest. A truncated, tampered, zero-byte, or wrong-version
//     entry fails verification and reads as ErrCorrupt — callers treat it
//     as a miss, re-simulate, and rewrite. A damaged store degrades to a
//     cold one; it never serves wrong bytes.
//
//   - Cross-process singleflight. TryLock/WaitUnlocked implement a
//     per-key lock-file protocol (O_CREATE|O_EXCL) so N processes
//     sweeping the same scenario grid simulate each scenario once: the
//     first locks and simulates, the rest wait and decode its entry. The
//     lock is purely an optimization — a crashed holder's stale lock is
//     stolen after StaleLockAfter, and a waiter that outlives LockWait
//     simulates without the lock, which is always correct because writes
//     are atomic and deterministic entries are interchangeable.
//
// The store's counters (hits, misses, writes, corrupt) are process-level
// host-side accounting: non-deterministic by nature (they depend on what
// is on disk), they are exposed via Counters/Summary and as a
// NonDeterministic "store" obs scope through Snapshot, and never enter
// result artifacts.
package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"clustersoc/internal/obs"
)

// FormatVersion is the on-disk container version (the header layout).
// Bumped on incompatible container changes; entries with another version
// read as corrupt and are rewritten.
const FormatVersion = 1

// ErrMiss reports an absent entry.
var ErrMiss = errors.New("store: entry not present")

// ErrCorrupt reports an entry that exists but fails verification —
// truncated, tampered, zero-byte, or written under another version.
// Callers treat it as a miss and rewrite it.
var ErrCorrupt = errors.New("store: entry corrupt")

// ErrReadOnly reports a mutation declined by a read-only store
// (SetReadOnly): the entry was not written, the disk is untouched.
var ErrReadOnly = errors.New("store: read-only")

// Counters is a snapshot of the store's accounting.
type Counters struct {
	// Hits counts Gets that returned a verified payload.
	Hits uint64
	// Misses counts Gets that found no entry.
	Misses uint64
	// Writes counts entries installed by Put.
	Writes uint64
	// Corrupt counts entries that failed verification on Get plus
	// payload-level invalidations reported via Invalidate.
	Corrupt uint64
}

// Store is a content-addressed entry store rooted at one directory. All
// methods are safe for concurrent use from multiple goroutines and, by
// construction, multiple processes sharing the directory.
type Store struct {
	dir    string
	schema int

	// The lock-protocol knobs are atomic durations (nanoseconds): the
	// Set* methods may be called while other goroutines are inside
	// TryLock/WaitUnlocked — a long-running server reconfiguring a Store
	// shared across request goroutines — and plain fields would race.
	lockWait   atomic.Int64
	poll       atomic.Int64
	staleAfter atomic.Int64
	readOnly   atomic.Bool

	hits    atomic.Uint64
	misses  atomic.Uint64
	writes  atomic.Uint64
	corrupt atomic.Uint64
}

// Open roots a store at dir (created if absent) for entries of the given
// payload schema version. The schema participates in every entry's
// address, so bumping it re-addresses the whole keyspace: old entries
// are simply never looked up again, and mixed-version processes sharing
// one directory never serve each other's payloads.
func Open(dir string, schema int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, schema: schema}
	s.lockWait.Store(int64(60 * time.Second))
	s.poll.Store(int64(10 * time.Millisecond))
	s.staleAfter.Store(int64(10 * time.Minute))
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Schema returns the payload schema version the store addresses with.
func (s *Store) Schema() int { return s.schema }

// LockWait returns how long a caller should wait on another process's
// per-key lock before giving up and simulating without it.
func (s *Store) LockWait() time.Duration { return time.Duration(s.lockWait.Load()) }

// SetLockWait bounds the singleflight wait on a foreign lock. Past the
// bound callers proceed without the lock (correct, just duplicated work).
// Safe to call while other goroutines use the store.
func (s *Store) SetLockWait(d time.Duration) { s.lockWait.Store(int64(d)) }

// PollInterval returns the lock-wait polling period.
func (s *Store) PollInterval() time.Duration { return time.Duration(s.poll.Load()) }

// SetPollInterval sets the lock-wait polling period. Safe to call while
// other goroutines use the store.
func (s *Store) SetPollInterval(d time.Duration) { s.poll.Store(int64(d)) }

// StaleLockAfter returns the age past which a lock file is presumed
// abandoned.
func (s *Store) StaleLockAfter() time.Duration { return time.Duration(s.staleAfter.Load()) }

// SetStaleLockAfter sets the age past which a lock file is presumed
// abandoned by a dead process and is stolen. Safe to call while other
// goroutines use the store.
func (s *Store) SetStaleLockAfter(d time.Duration) { s.staleAfter.Store(int64(d)) }

// SetReadOnly switches the store into (or out of) read-only mode: Get
// and Peek serve entries as usual, while Put and Invalidate return
// ErrReadOnly (or silently decline) and TryLock refuses to create lock
// files. Replicas serving a shared warm store they must not scribble on
// (a read-only mount, an operator-frozen cache) run in this mode; the
// run-plane falls through to simulation for anything the store lacks.
func (s *Store) SetReadOnly(on bool) { s.readOnly.Store(on) }

// ReadOnly reports whether the store declines mutations.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// address returns the content address of key under the store's schema:
// the hex SHA-256 of (container version, schema version, key), sharded
// into a two-character subdirectory to keep directories shallow.
func (s *Store) address(key string) (shard, base string) {
	h := sha256.Sum256([]byte(fmt.Sprintf("clustersoc-store\x00v%d\x00schema%d\x00%s", FormatVersion, s.schema, key)))
	hex := fmt.Sprintf("%x", h)
	return filepath.Join(s.dir, hex[:2]), hex
}

func (s *Store) entryPath(key string) string {
	shard, base := s.address(key)
	return filepath.Join(shard, base+".entry")
}

func (s *Store) lockPath(key string) string {
	shard, base := s.address(key)
	return filepath.Join(shard, base+".lock")
}

// header renders the entry header line for a payload.
func (s *Store) header(payload []byte) string {
	return fmt.Sprintf("clustersoc-store v%d schema=%d len=%d sha256=%x\n",
		FormatVersion, s.schema, len(payload), sha256.Sum256(payload))
}

// verify splits an entry file into header and payload and checks every
// header field against the payload bytes.
func (s *Store) verify(data []byte) ([]byte, error) {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("%w: no header", ErrCorrupt)
	}
	header, payload := string(data[:nl]), data[nl+1:]
	var version, schema, length int
	var sum string
	if n, err := fmt.Sscanf(header, "clustersoc-store v%d schema=%d len=%d sha256=%s",
		&version, &schema, &length, &sum); n != 4 || err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrCorrupt, header)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: container version %d (want %d)", ErrCorrupt, version, FormatVersion)
	}
	if schema != s.schema {
		return nil, fmt.Errorf("%w: schema version %d (want %d)", ErrCorrupt, schema, s.schema)
	}
	if length != len(payload) {
		return nil, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrCorrupt, len(payload), length)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(payload)); !strings.EqualFold(got, sum) {
		return nil, fmt.Errorf("%w: payload digest mismatch", ErrCorrupt)
	}
	return payload, nil
}

// read loads and verifies an entry without touching the counters.
func (s *Store) read(key string) ([]byte, error) {
	data, err := os.ReadFile(s.entryPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrMiss
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: zero-byte entry", ErrCorrupt)
	}
	return s.verify(data)
}

// Get returns the verified payload stored under key. ErrMiss means no
// entry; ErrCorrupt means an entry exists but fails verification —
// treat it as a miss and rewrite it. Counted.
func (s *Store) Get(key string) ([]byte, error) {
	payload, err := s.read(key)
	switch {
	case err == nil:
		s.hits.Add(1)
	case errors.Is(err, ErrCorrupt):
		s.corrupt.Add(1)
	default:
		s.misses.Add(1)
	}
	return payload, err
}

// Peek is Get without counter accounting — for singleflight re-checks
// and inspection tools that should not skew the hit/miss statistics.
func (s *Store) Peek(key string) ([]byte, error) { return s.read(key) }

// Put atomically installs payload under key: the entry is staged in a
// temp file in the target shard and renamed into place, so concurrent
// readers observe either the old entry, the new one, or none — never a
// torn write. Re-putting a key replaces its entry.
func (s *Store) Put(key string, payload []byte) error {
	if s.ReadOnly() {
		return ErrReadOnly
	}
	shard, _ := s.address(key)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(shard, ".staging-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.WriteString(s.header(payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.entryPath(key)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Invalidate removes key's entry and counts it corrupt. Callers use it
// when the container verified but the payload inside failed to decode
// (a payload-level corruption the container checksum cannot see, e.g. a
// manually edited entry).
func (s *Store) Invalidate(key string) {
	s.corrupt.Add(1)
	if s.ReadOnly() {
		return
	}
	os.Remove(s.entryPath(key))
}

// TryLock attempts to take key's cross-process singleflight lock.
// On success it returns a release function (remove the lock after
// persisting the entry). A lock file older than StaleLockAfter is
// presumed abandoned and stolen. The lock is advisory and exists only to
// avoid duplicate work — losing a race on a stale steal at worst
// simulates a scenario twice, and both writers install identical bytes.
func (s *Store) TryLock(key string) (release func(), ok bool) {
	if s.ReadOnly() {
		return nil, false
	}
	shard, _ := s.address(key)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return nil, false
	}
	path := s.lockPath(key)
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "pid=%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, true
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, false
		}
		info, statErr := os.Stat(path)
		if statErr != nil {
			continue // holder released between open and stat: retry
		}
		if time.Since(info.ModTime()) < s.StaleLockAfter() {
			return nil, false // live holder
		}
		os.Remove(path) // stale: steal and retry the exclusive create
	}
	return nil, false
}

// WaitUnlocked polls until key's lock file is gone (true) or the
// deadline passes (false).
func (s *Store) WaitUnlocked(key string, deadline time.Time) bool {
	path := s.lockPath(key)
	for {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(s.PollInterval())
	}
}

// Locked reports whether key's lock file currently exists. A failed
// TryLock with Locked false means no holder stands between the caller
// and the lock — the filesystem itself is refusing (read-only, full, or
// the store is in read-only mode) — so there is nobody to wait for.
func (s *Store) Locked(key string) bool {
	_, err := os.Stat(s.lockPath(key))
	return err == nil
}

// Counters returns a snapshot of the store's accounting.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Writes:  s.writes.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// Snapshot renders the counters as a "store"-scoped obs snapshot. The
// scope is NonDeterministic: what is on disk varies run to run, so these
// metrics are diagnostics and never enter byte-compared artifacts.
func (s *Store) Snapshot() obs.Snapshot {
	reg := obs.NewRegistry()
	sc := reg.Scope("store").NonDeterministic()
	c := s.Counters()
	sc.Counter("hit").Add(float64(c.Hits))
	sc.Counter("miss").Add(float64(c.Misses))
	sc.Counter("write").Add(float64(c.Writes))
	sc.Counter("corrupt").Add(float64(c.Corrupt))
	return reg.Snapshot()
}

// Summary is the one-line accounting the CLIs print on stderr.
func (s *Store) Summary() string {
	c := s.Counters()
	return fmt.Sprintf("%d hits, %d misses, %d writes, %d corrupt", c.Hits, c.Misses, c.Writes, c.Corrupt)
}
