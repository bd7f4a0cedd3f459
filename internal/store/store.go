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
//   - Cross-process singleflight. Lock takes a per-key lock file
//     (O_CREATE|O_EXCL) so N processes sweeping the same scenario grid
//     simulate each scenario once: the first locks, simulates and
//     persists; the rest wait in Lock, then find its entry. The lock is
//     purely an optimization, so every way of not getting it is bounded
//     and leaves the caller free to simulate without it: a crashed
//     holder's lock is stolen once it is older than the stale window, a
//     wait on a live holder ends in ErrLockTimeout, and a store that
//     cannot create the lock file (read-only, full) refuses at once,
//     because there is nobody to wait for. Simulating without the lock is
//     always correct: writes are atomic and every writer of a key
//     installs the same bytes.
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
	"syscall"
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

// ErrLockTimeout reports a Lock that waited out its bound on a live
// holder. Callers proceed without the lock: duplicated work, same bytes.
var ErrLockTimeout = errors.New("store: timed out waiting for a key lock")

// The lock protocol's bounds: how long Lock waits on a live holder, how
// often it retries, and the age past which a lock file is presumed
// abandoned by a dead process and is stolen. lockWait is a variable only
// so a test can wait it out.
var lockWait = 60 * time.Second

const (
	pollInterval   = 10 * time.Millisecond
	staleLockAfter = 10 * time.Minute
)

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
	return &Store{dir: dir, schema: schema}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Schema returns the payload schema version the store addresses with.
func (s *Store) Schema() int { return s.schema }

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
	if errors.Is(err, os.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) {
		// ENOTDIR: a file sits where the key's shard directory goes, so
		// no entry can exist under it.
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
	os.Remove(s.entryPath(key))
}

// Lock takes key's cross-process singleflight lock and returns its
// release, to be called after the caller has persisted key's entry. It
// polls while a live holder has the lock, steals a lock file older than
// the stale window, and returns ErrLockTimeout after the wait bound.
// When no lock file can be created (a read-only or full store, or a
// non-directory where the key's shard goes) it returns the filesystem's
// error at once: there is no holder to wait for. Two contenders that
// steal one stale lock may both hold it; the lock only saves duplicate
// work, and both install identical bytes.
func (s *Store) Lock(key string) (release func(), err error) {
	shard, _ := s.address(key)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := s.lockPath(key)
	deadline := time.Now().Add(lockWait)
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "pid=%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("store: %w", err)
		}
		info, err := os.Lstat(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Released between the create and the stat: retry at once.
		case err == nil && time.Since(info.ModTime()) >= staleLockAfter:
			// Abandoned by a dead holder: steal it.
			if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("store: %w", err)
			}
		case time.Now().After(deadline):
			return nil, ErrLockTimeout
		default:
			time.Sleep(pollInterval)
		}
	}
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
