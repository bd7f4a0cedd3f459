// Package store is a persistent, content-addressed result store: a
// directory of append-only segment files holding records keyed by an
// arbitrary string key (the run-plane uses runner.Scenario fingerprints)
// plus a caller-declared schema version. Simulations are
// bit-deterministic, so a record written once is valid forever — the
// store never expires anything; schema changes are handled by bumping the
// version, which re-addresses every key.
//
// Each Store that writes creates one segment,
// seg-<zero-padded creation ns>-<random>.pack, on its first Lock or write
// and appends every record to it with a single write; a segment still
// empty when its locks end is removed. A record is one header line,
// `clustersoc-store v2 schema=N key=K len=L sha256=H`, then the L
// payload bytes; K is the key's content address. Open indexes every
// segment's records by reading their headers only, skipping each payload
// by its length, and Peek rescans the segments that grew or appeared
// since, so it finds the records other processes appended. A key's
// newest record wins: segments order by name, which is creation order,
// and records by file order, except that a record this Store appended is
// the newest in its own index.
//
// Four properties are load-bearing:
//
//   - Verified reads. Get and Peek check a record's version, schema, key,
//     length and SHA-256 when they read it. A record whose header names
//     the key but fails any check reads as ErrCorrupt — callers treat it
//     as a miss, re-simulate, and rewrite, and the rewrite supersedes it.
//     A damaged store degrades to a cold one; it never serves wrong bytes.
//
//   - Crash-tolerant appends. A record is indexed only once it is whole,
//     so a tail cut mid-record (a writer killed mid-append, or one still
//     appending) reads as absent, and a failed append is cut back to the
//     last whole record. Bytes that frame no record end the scan of their
//     segment; records of another schema are skipped.
//
//   - Persistent invalidation. Invalidate appends a tombstone, a
//     zero-length record, which hides the key from this Store and from
//     every Store opened later until a newer record lands.
//
//   - Cross-process singleflight. Lock hard-links the Store's segment to
//     <address>.lock, so N processes sweeping the same scenario grid
//     simulate each scenario once: the first locks, simulates and
//     appends; the rest wait in Lock, then find its record. The lock is
//     purely an optimization, so every way of not getting it is bounded
//     and leaves the caller free to simulate without it: a crashed
//     holder's lock is stolen once its segment has been idle for the
//     stale window, a wait on a live holder ends in ErrLockTimeout, and a
//     store where no segment or link can be created (read-only, full, no
//     hard links) refuses at once, because there is nobody to wait for.
//     Simulating without the lock is always correct: every writer of a
//     key appends the same bytes.
//
// A Store holds its segment files open for its lifetime; the API has no
// Close, so they close when the Store is garbage collected.
//
// The store's counters (hits, misses, writes, corrupt) are process-level
// host-side accounting: non-deterministic by nature (they depend on what
// is on disk), they are exposed via Counters/Summary and as a
// NonDeterministic "store" obs scope through Snapshot, and never enter
// result artifacts.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersoc/internal/obs"
)

// FormatVersion is the on-disk container version (the record layout).
// Bumped on incompatible container changes; it is part of every key's
// address, so records of another version are never looked up.
const FormatVersion = 2

// ErrMiss reports an absent entry.
var ErrMiss = errors.New("store: entry not present")

// ErrCorrupt reports an entry that exists but fails verification —
// damaged, filed under another key, or written under another version.
// Callers treat it as a miss and rewrite it.
var ErrCorrupt = errors.New("store: entry corrupt")

// ErrLockTimeout reports a Lock that waited out its bound on a live
// holder. Callers proceed without the lock: duplicated work, same bytes.
var ErrLockTimeout = errors.New("store: timed out waiting for a key lock")

// The lock protocol's bounds: how long Lock waits on a live holder, how
// often it retries, and how long a holder's segment must have been idle
// before its lock is presumed abandoned by a dead process and is stolen.
// lockWait is a variable only so a test can wait it out.
var lockWait = 60 * time.Second

const (
	pollInterval   = 10 * time.Millisecond
	staleLockAfter = 10 * time.Minute
)

// A scan reads a segment in blocks of scanBlock bytes from each header it
// cannot see yet, so a payload that shares no block with a header is
// never read. maxHeader bounds a header line; the store writes them
// under 200 bytes.
const (
	scanBlock = 64 << 10
	maxHeader = 256
)

// address is a key's content address.
type address = [sha256.Size]byte

// Counters is a snapshot of the store's accounting.
type Counters struct {
	// Hits counts Gets that returned a verified payload.
	Hits uint64
	// Misses counts Gets that found no entry.
	Misses uint64
	// Writes counts successful Puts.
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
	// prefix is hashed ahead of every key to form its address.
	prefix string
	// writeAt is an append's one write; tests replace it to fail it
	// part-way.
	writeAt func(f *os.File, b []byte, off int64) (int, error)

	mu    sync.Mutex
	segs  []*segment
	named map[string]bool // names of segs
	own   int             // this Store's segment in segs; -1 until its first write
	held  int             // locks held or being taken
	index map[address]loc // each key's newest record

	hits    atomic.Uint64
	misses  atomic.Uint64
	writes  atomic.Uint64
	corrupt atomic.Uint64
}

// segment is one open segment file.
type segment struct {
	name string
	f    *os.File
	// end is the end of the last whole record indexed (or, for this
	// Store's own segment, appended): where a scan or an append resumes.
	end int64
}

// loc is where a record lies: n bytes at off in segs[seg].
type loc struct {
	off, n int64
	seg    int
}

// Open roots a store at dir (created if absent) for entries of the given
// payload schema version and indexes the records already there. The
// schema participates in every key's address, so bumping it re-addresses
// the whole keyspace: old records are simply never looked up again, and
// mixed-version processes sharing one directory never serve each other's
// payloads.
func Open(dir string, schema int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		schema:  schema,
		prefix:  fmt.Sprintf("clustersoc-store\x00v%d\x00schema%d\x00", FormatVersion, schema),
		writeAt: (*os.File).WriteAt,
		named:   map[string]bool{},
		own:     -1,
		index:   map[address]loc{},
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.rescan(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Schema returns the payload schema version the store addresses with.
func (s *Store) Schema() int { return s.schema }

// address returns the content address of key under the store's schema:
// the SHA-256 of (container version, schema version, key).
func (s *Store) address(key string) address {
	return sha256.Sum256([]byte(s.prefix + key))
}

// lockPath is where key's lock link goes.
func (s *Store) lockPath(key string) string {
	a := s.address(key)
	return filepath.Join(s.dir, hex.EncodeToString(a[:])+".lock")
}

// rescan opens the segments that appeared since the last scan and
// indexes the whole records every other writer appended since. Called
// with mu held.
func (s *Store) rescan() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if s.named[name] || !e.Type().IsRegular() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".pack") {
			continue
		}
		f, err := os.Open(filepath.Join(s.dir, name))
		if err != nil {
			continue // unreadable: its records stay cold, and the next rescan retries
		}
		s.named[name] = true
		s.segs = append(s.segs, &segment{name: name, f: f})
	}
	for i := range s.segs {
		if i != s.own {
			s.scan(i)
		}
	}
	return nil
}

// scan indexes the whole records past segs[i]'s end. It stops at a
// record cut short, which its writer may still be completing and a later
// scan picks up, and at bytes that frame no record. Called with mu held.
func (s *Store) scan(i int) {
	seg := s.segs[i]
	info, err := seg.f.Stat()
	if err != nil || info.Size() <= seg.end {
		return
	}
	size := info.Size()
	buf := make([]byte, min(scanBlock, size-seg.end))
	at, got := seg.end, 0 // buf[:got] holds the file's bytes from at
	for seg.end < size {
		p := seg.end
		if p+min(maxHeader, size-p) > at+int64(got) {
			got, _ = seg.f.ReadAt(buf, p)
			at = p
			if got < len(buf) {
				size = min(size, p+int64(got)) // cut back since the stat
			}
		}
		win := buf[p-at : got]
		if len(win) > maxHeader {
			win = win[:maxHeader]
		}
		nl := bytes.IndexByte(win, '\n')
		if nl < 0 {
			return // a header still being written, or garbage
		}
		h, fields := parseHeader(win[:nl])
		hdr := int64(nl) + 1
		if fields < fieldLen {
			if fields >= fieldKey && h.schema == s.schema {
				s.note(h.key, loc{off: p, n: hdr, seg: i}) // reads back as ErrCorrupt
			}
			return
		}
		if h.n > size-p-hdr {
			return // cut short, or claiming more bytes than the file holds
		}
		if h.schema == s.schema {
			s.note(h.key, loc{off: p, n: hdr + h.n, seg: i})
		}
		seg.end = p + hdr + h.n
	}
}

// note indexes a scanned record as key's newest unless the index holds a
// newer one: one this Store appended, or one in a later segment. Called
// with mu held.
func (s *Store) note(key address, l loc) {
	if cur, ok := s.index[key]; ok && (cur.seg == s.own || s.segs[cur.seg].name > s.segs[l.seg].name) {
		return
	}
	s.index[key] = l
}

// A header's fields, in order. A line whose first fieldKey fields parse
// names a key, one whose first fieldLen parse frames a record, and one
// whose fields all parse, with nothing after them, is a whole header.
var headerFields = [...]string{"clustersoc-store", "v", "schema=", "key=", "len=", "sha256="}

const (
	fieldKey = 4
	fieldLen = 5
	fieldAll = len(headerFields)
)

// header is a parsed record header line.
type header struct {
	version, schema int
	key, sum        address
	n               int64 // payload length
}

// parseHeader parses a record header line without its newline and
// reports how many of its leading fields parsed.
func parseHeader(line []byte) (h header, fields int) {
	for i, name := range headerFields {
		f, rest, more := bytes.Cut(line, []byte{' '})
		line = rest
		v, ok := bytes.CutPrefix(f, []byte(name))
		if ok {
			var n int64
			switch i {
			case 0:
				ok = len(v) == 0
			case 1:
				n, ok = atoi(v)
				h.version = int(n)
			case 2:
				n, ok = atoi(v)
				h.schema = int(n)
			case 3:
				ok = unhex(h.key[:], v)
			case 4:
				h.n, ok = atoi(v)
			case 5:
				ok = unhex(h.sum[:], v)
			}
		}
		if !ok || more != (i < fieldAll-1) {
			return h, i
		}
	}
	return h, fieldAll
}

// atoi parses a decimal of at most 18 digits, which cannot overflow.
func atoi(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// unhex decodes src into dst, which it must fill exactly.
func unhex(dst, src []byte) bool {
	if len(src) != 2*len(dst) {
		return false
	}
	_, err := hex.Decode(dst, src)
	return err == nil
}

// verify checks a record read back for addr against its header and
// returns its payload: ErrMiss for a tombstone, ErrCorrupt for any failed
// check.
func (s *Store) verify(rec []byte, addr address) ([]byte, error) {
	nl := bytes.IndexByte(rec, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: no header", ErrCorrupt)
	}
	payload := rec[nl+1:]
	h, fields := parseHeader(rec[:nl])
	switch {
	case fields < fieldAll:
		return nil, fmt.Errorf("%w: bad header %q", ErrCorrupt, rec[:nl])
	case h.version != FormatVersion:
		return nil, fmt.Errorf("%w: container version %d (want %d)", ErrCorrupt, h.version, FormatVersion)
	case h.schema != s.schema:
		return nil, fmt.Errorf("%w: schema version %d (want %d)", ErrCorrupt, h.schema, s.schema)
	case h.key != addr:
		return nil, fmt.Errorf("%w: record filed under another key", ErrCorrupt)
	case h.n != int64(len(payload)):
		return nil, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrCorrupt, len(payload), h.n)
	case sha256.Sum256(payload) != h.sum:
		return nil, fmt.Errorf("%w: payload digest mismatch", ErrCorrupt)
	case len(payload) == 0:
		return nil, ErrMiss // a tombstone
	}
	return payload, nil
}

// read loads and verifies the newest record at addr without touching
// the counters, first rescanning the segments when asked to.
func (s *Store) read(addr address, rescan bool) ([]byte, error) {
	s.mu.Lock()
	if rescan {
		// A directory that cannot be listed leaves the index as it is.
		_ = s.rescan()
	}
	l, ok := s.index[addr]
	var f *os.File
	if ok {
		f = s.segs[l.seg].f
	}
	s.mu.Unlock()
	if !ok {
		return nil, ErrMiss
	}
	rec := make([]byte, l.n)
	if _, err := f.ReadAt(rec, l.off); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s.verify(rec, addr)
}

// Get returns the verified payload stored under key. ErrMiss means no
// entry; ErrCorrupt means an entry exists but fails verification —
// treat it as a miss and rewrite it. Counted. Get reads the index as it
// stands; Peek also picks up what other processes appended since.
func (s *Store) Get(key string) ([]byte, error) {
	payload, err := s.read(s.address(key), false)
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

// Peek is Get without counter accounting, after rescanning the segments
// that grew or appeared — for singleflight re-checks, which must see the
// record the lock holder just appended, and for inspection tools that
// should not skew the hit/miss statistics.
func (s *Store) Peek(key string) ([]byte, error) { return s.read(s.address(key), true) }

// Put appends payload under key as one record, so concurrent readers
// observe either the old entry, the new one, or none — never a torn
// write. Re-putting a key supersedes its entry, except that a payload
// equal to the verified entry already served appends nothing: results
// are deterministic, so checked runs and runs forced by a missing
// observer record re-put the stored bytes, and appending them again
// would only grow the segment. An empty payload is refused: a
// zero-length record is a tombstone (Invalidate).
func (s *Store) Put(key string, payload []byte) error {
	if len(payload) == 0 {
		return errors.New("store: empty payload")
	}
	addr := s.address(key)
	if old, err := s.read(addr, false); err != nil || !bytes.Equal(old, payload) {
		if err := s.append(addr, payload); err != nil {
			return err
		}
	}
	s.writes.Add(1)
	return nil
}

// Invalidate appends a tombstone for key and counts it corrupt. Callers
// use it when the container verified but the payload inside failed to
// decode (a payload-level corruption the container checksum cannot see,
// e.g. a manually edited entry). Should the tombstone not land, this
// Store still stops serving the key.
func (s *Store) Invalidate(key string) {
	s.corrupt.Add(1)
	addr := s.address(key)
	if s.append(addr, nil) != nil {
		s.mu.Lock()
		delete(s.index, addr)
		s.mu.Unlock()
	}
}

// append writes one record for addr to this Store's segment with a
// single write, creating the segment on the first, and indexes it. A
// write that fails part-way is cut back to the last whole record; were
// the cut to fail too, the partial bytes would lie past the last whole
// record, where scans stop and the next append writes over them.
func (s *Store) append(addr address, payload []byte) error {
	rec := s.record(addr, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, err := s.ownSegment()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.writeAt(seg.f, rec, seg.end); err != nil {
		_ = seg.f.Truncate(seg.end)
		return fmt.Errorf("store: %w", err)
	}
	s.index[addr] = loc{off: seg.end, n: int64(len(rec)), seg: s.own}
	seg.end += int64(len(rec))
	return nil
}

// record renders the record of payload under addr.
func (s *Store) record(addr address, payload []byte) []byte {
	rec := fmt.Appendf(make([]byte, 0, maxHeader+len(payload)),
		"clustersoc-store v%d schema=%d key=%x len=%d sha256=%x\n",
		FormatVersion, s.schema, addr, len(payload), sha256.Sum256(payload))
	return append(rec, payload...)
}

// ownSegment returns this Store's segment, creating it on the first
// write. Called with mu held.
func (s *Store) ownSegment() (*segment, error) {
	if s.own >= 0 {
		return s.segs[s.own], nil
	}
	f, err := os.CreateTemp(s.dir, fmt.Sprintf("seg-%020d-*.pack", time.Now().UnixNano()))
	if err != nil {
		return nil, err
	}
	seg := &segment{name: filepath.Base(f.Name()), f: f}
	s.named[seg.name] = true
	s.segs = append(s.segs, seg)
	s.own = len(s.segs) - 1
	return seg, nil
}

// Lock takes key's cross-process singleflight lock and returns its
// release, to be called after the caller has persisted key's entry. The
// lock is a hard link from <address>.lock to this Store's segment, so it
// creates no inode, and its age is the segment's mtime: every append
// touches the segment, and so does every Lock it wins, so the stale
// clock measures its holder's last store activity. Lock polls while a
// live holder has the lock, steals a lock whose segment has been idle
// for the stale window, and returns ErrLockTimeout after the wait bound.
// When this Store cannot create its segment (a read-only or full store,
// or a non-directory where the store's directory was) or the link (a
// filesystem without hard links), it returns the filesystem's error at
// once: there is no holder to wait for. Two contenders that steal one
// stale lock may both hold it; the lock only saves duplicate work, and
// both append identical bytes. When the last lock this Store holds or is
// taking ends with nothing appended, the segment is removed, and the
// next Lock or Put creates a fresh one.
func (s *Store) Lock(key string) (release func(), err error) {
	s.mu.Lock()
	seg, err := s.ownSegment()
	if err == nil {
		s.held++
	}
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			s.unhold()
		}
	}()
	target := filepath.Join(s.dir, seg.name)
	path := s.lockPath(key)
	deadline := time.Now().Add(lockWait)
	for {
		err := os.Link(target, path)
		if err == nil {
			// A failed touch only lets a contender steal the lock sooner.
			now := time.Now()
			_ = os.Chtimes(target, now, now)
			return func() {
				os.Remove(path)
				s.unhold()
			}, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("store: %w", err)
		}
		info, err := os.Lstat(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Released between the link and the stat: retry at once.
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

// unhold ends a lock Lock took or failed to take. The last one to end
// with nothing appended removes this Store's segment and forgets it; its
// slot in segs stays, closed, so later segments keep their positions.
func (s *Store) unhold() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held--
	if s.held > 0 || s.own < 0 || s.segs[s.own].end > 0 {
		return
	}
	seg := s.segs[s.own]
	s.own = -1
	seg.f.Close()
	os.Remove(filepath.Join(s.dir, seg.name))
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
