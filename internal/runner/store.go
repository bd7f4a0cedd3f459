// The persistent second cache tier: under the in-memory fingerprint map
// sits an optional content-addressed on-disk store (internal/store).
// Results are bit-deterministic, so a stored entry is valid forever — a
// warm store turns full artifact regeneration into pure decode, and the
// store's per-key lock files extend the run-plane's singleflight across
// processes: N concurrent sweeps of one scenario grid simulate each
// scenario once between them.
package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"clustersoc/internal/critpath"
	"clustersoc/internal/obs"
	"clustersoc/internal/store"
	"clustersoc/internal/trace"
)

// StoreSchemaVersion is the persisted-result schema. Bump it whenever
// the encoding of a stored entry changes meaning — Result gaining,
// losing, or reinterpreting a field; obs.Profile, critpath.Report or
// trace format changes; anything that would make an old entry decode
// into a different value than a fresh simulation produces. Bumping
// re-addresses every key, so old entries become unreachable instead of
// wrong. Schema 2 moved traces out of the JSON into a binary section.
const StoreSchemaVersion = 2

// OpenStore opens (creating if needed) a persistent result store rooted
// at dir, addressed with the run-plane's current result schema.
func OpenStore(dir string) (*store.Store, error) {
	return store.Open(dir, StoreSchemaVersion)
}

// SetStore attaches a persistent store as the Runner's second cache
// tier: lookups fall through the in-memory map to the store, and every
// executed scenario is persisted. Attach it before submitting work.
// Entries are shared across processes and runs — the store never
// invalidates, because identical fingerprints produce identical results.
func (r *Runner) SetStore(st *store.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = st
}

// Store returns the attached persistent store (nil when none).
func (r *Runner) Store() *store.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// storedEntry is the persisted form of one scenario's Result. The
// fields Result excludes from JSON on purpose (Events is a property of
// the simulator, Profile and CritPath live in sidecars) are first-class
// here, so a store hit reconstructs the full in-memory Result — and
// -profile/-critpath replays against a warm store are free.
//
// An entry is the JSON of storedEntry with the trace left out, then, for
// a traced run only, a newline and the trace in its binary file format
// (trace.Write). json.Marshal never emits a raw newline, so the first
// one ends the JSON head. Traces are nearly all of a store's bytes, and
// the binary section is about a third the size of their JSON and decodes
// many times faster.
type storedEntry struct {
	Fingerprint string           `json:"fingerprint"`
	Events      uint64           `json:"events"`
	Result      Result           `json:"result"`
	Profile     *obs.Profile     `json:"profile,omitempty"`
	CritPath    *critpath.Report `json:"critpath,omitempty"`
}

// result reassembles the in-memory Result from a decoded entry.
func (e *storedEntry) result() Result {
	res := e.Result
	res.Events = e.Events
	res.Profile = e.Profile
	res.CritPath = e.CritPath
	return res
}

// encodeStored serializes a Result for the store. res is a copy, so
// clearing its Trace leaves the shared cached Result intact.
func encodeStored(fp string, res Result) ([]byte, error) {
	tr := res.Trace
	res.Trace = nil
	head, err := json.Marshal(storedEntry{
		Fingerprint: fp,
		Events:      res.Events,
		Result:      res,
		Profile:     res.Profile,
		CritPath:    res.CritPath,
	})
	if err != nil || tr == nil {
		return head, err
	}
	buf := bytes.NewBuffer(head)
	buf.WriteByte('\n')
	if err := tr.Write(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeStored parses a stored payload and verifies it echoes the
// requested fingerprint — the guard against an (astronomically
// unlikely) content-address collision or a misfiled entry.
func decodeStored(data []byte, fp string) (*storedEntry, error) {
	head, tail, traced := bytes.Cut(data, []byte{'\n'})
	var e storedEntry
	if err := json.Unmarshal(head, &e); err != nil {
		return nil, fmt.Errorf("runner: stored entry undecodable: %w", err)
	}
	if e.Fingerprint != fp {
		return nil, fmt.Errorf("runner: stored entry fingerprint mismatch (got %q)", e.Fingerprint)
	}
	if traced {
		tr, err := trace.Decode(tail)
		if err != nil {
			return nil, fmt.Errorf("runner: stored entry trace section: %w", err)
		}
		e.Result.Trace = tr
	}
	return &e, nil
}

// runTiered resolves one claimed fingerprint through the store tier:
// decode a servable entry, or take the cross-process lock, simulate,
// and persist. Checking always simulates (the simcheck audit needs the
// live cluster, not a decoded result); profiling/critpath requests are
// served from the store only when the entry carries the corresponding
// record, and an execution forced by a missing record rewrites the
// entry with the record added (read-merge keeps the other one).
func (r *Runner) runTiered(s Scenario, fp string, st *store.Store, profiled, checked, critpathOn bool) (Result, string, error) {
	var release func()
	if st != nil {
		if res, ok := r.tryLoad(st, fp, profiled, checked, critpathOn, false); ok {
			return res, SourceStore, nil
		}
		// Cross-process singleflight: take the key's lock, or wait for
		// the holder and decode the entry it persisted (holders persist
		// before releasing, so a clean release means the entry is there).
		// Both the wait and the stale-steal inside TryLock are bounded —
		// worst case we simulate without the lock, which is merely
		// duplicated work installing identical bytes. Re-checks after
		// waiting or winning the lock are quiet so one submission counts
		// at most one store miss.
		//
		// The loop itself consults the deadline: TryLock can fail without
		// leaving a lock file on disk (read-only or full store directory,
		// a store in read-only mode), in which case WaitUnlocked returns
		// true immediately and the load keeps missing — without the
		// deadline check (and the no-holder fast path below) that spun
		// forever.
		deadline := time.Now().Add(st.LockWait())
		for release == nil {
			rel, ok := st.TryLock(fp)
			if ok {
				release = rel
				// Another process may have persisted and released between
				// our first load and the lock; serve that entry.
				if res, ok := r.tryLoad(st, fp, profiled, checked, critpathOn, true); ok {
					release()
					return res, SourceStore, nil
				}
				break
			}
			if time.Now().After(deadline) {
				break // out of patience: simulate without the lock
			}
			if !st.WaitUnlocked(fp, deadline) {
				break // stuck or stale holder: simulate without the lock
			}
			if res, ok := r.tryLoad(st, fp, profiled, checked, critpathOn, true); ok {
				return res, SourceStore, nil
			}
			if !st.Locked(fp) {
				// TryLock failed, yet no lock file exists and there is no
				// entry to serve: the filesystem is refusing locks, and
				// there is no holder to wait for. Simulate without one.
				break
			}
		}
	}
	res, err := r.executeCounted(s, profiled, checked, critpathOn)
	if err == nil && st != nil {
		r.persist(st, fp, res, release != nil)
	}
	if release != nil {
		release()
	}
	return res, SourceSimulated, err
}

// tryLoad attempts to serve fp from the store. Checking bypasses reads
// entirely (the audit needs a live simulation); a corrupt container or
// undecodable payload counts corrupt and falls back to simulation (the
// rewrite repairs the entry). A quiet load is a singleflight re-check:
// it never counts a miss — the submission already counted one — and
// reads through Peek so the store's own counters stay per-submission.
func (r *Runner) tryLoad(st *store.Store, fp string, profiled, checked, critpathOn, quiet bool) (Result, bool) {
	if checked {
		return Result{}, false
	}
	var data []byte
	var err error
	if quiet {
		data, err = st.Peek(fp)
	} else {
		data, err = st.Get(fp)
	}
	if err != nil {
		if !quiet {
			r.mu.Lock()
			if errors.Is(err, store.ErrCorrupt) {
				r.stats.StoreCorrupt++
			}
			r.stats.StoreMisses++
			r.mu.Unlock()
		}
		return Result{}, false
	}
	e, err := decodeStored(data, fp)
	if err != nil {
		// Payload-level corruption is real whichever load saw it.
		st.Invalidate(fp)
		r.mu.Lock()
		r.stats.StoreCorrupt++
		if !quiet {
			r.stats.StoreMisses++
		}
		r.mu.Unlock()
		return Result{}, false
	}
	if (profiled && e.Profile == nil) || (critpathOn && e.CritPath == nil) {
		// The entry predates the requested observer record; simulate with
		// the observer attached and upgrade the entry.
		if !quiet {
			r.mu.Lock()
			r.stats.StoreMisses++
			r.mu.Unlock()
		}
		return Result{}, false
	}
	r.mu.Lock()
	r.stats.StoreHits++
	r.mu.Unlock()
	return e.result(), true
}

// persist writes res under fp, carrying forward any observer record the
// existing entry has that this execution did not produce (results are
// deterministic, so records from different executions are coherent).
// Persistence is best-effort: an encode or write failure leaves the
// store cold for this key, never wrong.
//
// The read-merge is a check-then-act, so two concurrent upgraders (one
// adding a Profile, one adding a CritPath) could each Peek before the
// other's Put and the last writer would drop the other's record. Three
// defenses close that: writers that do not already hold the key's
// singleflight lock take it here when it is free, serializing the merge;
// the merge re-peeks immediately before the Put; and after the Put a
// writer holding a record re-reads the entry and, on a detected
// downgrade (the current entry lacking a record this writer knows
// about), re-merges and rewrites. Two writers that both fail to take the lock can still in
// principle interleave pathologically — the residual loss is an optional
// observer record (regenerable, never a wrong result), and every rewrite
// converges toward the union.
func (r *Runner) persist(st *store.Store, fp string, res Result, locked bool) {
	if !locked {
		if rel, ok := st.TryLock(fp); ok {
			locked = true
			defer rel()
		}
	}
	// Re-peek and merge (under the key lock when we hold it): fill the
	// records this execution did not produce from the current entry.
	merge := func() {
		if res.Profile != nil && res.CritPath != nil {
			return
		}
		if data, err := st.Peek(fp); err == nil {
			if prior, err := decodeStored(data, fp); err == nil {
				if res.Profile == nil {
					res.Profile = prior.Profile
				}
				if res.CritPath == nil {
					res.CritPath = prior.CritPath
				}
			}
		}
	}
	write := func() bool {
		data, err := encodeStored(fp, res)
		if err != nil {
			return false
		}
		if st.Put(fp, data) != nil {
			return false
		}
		r.mu.Lock()
		r.stats.StoreWrites++
		r.mu.Unlock()
		return true
	}
	merge()
	if r.persistPrePut != nil {
		r.persistPrePut()
	}
	if !write() || (res.Profile == nil && res.CritPath == nil) {
		// A downgrade is an entry missing a record this writer holds;
		// a writer holding none has nothing to verify.
		return
	}
	// Downgrade detection: if a concurrent writer replaced the entry with
	// one missing a record we hold, merge its records with ours and
	// rewrite. Bounded — each pass only fires when the entry on disk
	// lost information relative to this writer.
	for attempt := 0; attempt < 4; attempt++ {
		if r.persistPreVerify != nil {
			r.persistPreVerify()
		}
		data, err := st.Peek(fp)
		if err != nil {
			return // unreadable or gone: nothing to verify against
		}
		cur, err := decodeStored(data, fp)
		if err != nil {
			return
		}
		if (res.Profile == nil || cur.Profile != nil) && (res.CritPath == nil || cur.CritPath != nil) {
			return // the installed entry covers every record we know about
		}
		if res.Profile == nil {
			res.Profile = cur.Profile
		}
		if res.CritPath == nil {
			res.CritPath = cur.CritPath
		}
		if !write() {
			return
		}
	}
}
