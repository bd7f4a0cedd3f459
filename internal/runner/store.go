// The persistent second cache tier: under the in-memory fingerprint map
// sits an optional content-addressed on-disk store (internal/store).
// Results are bit-deterministic, so a stored entry is valid forever — a
// warm store turns full artifact regeneration into pure decode, and
// store.Lock extends the run-plane's singleflight across processes: N
// concurrent sweeps of one scenario grid simulate each scenario once
// between them. The store owns the lock policy; a lock it does not
// grant, for whatever reason, means simulating without one.
package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

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
// wrong. Schema 2 moved traces out of the JSON into a binary section;
// schema 3 added Result.Replay.
const StoreSchemaVersion = 3

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

// storedEntry is the persisted form of one scenario's Result. Events,
// which Result excludes from JSON on purpose (it is a property of the
// simulator), is first-class here, so a store hit reconstructs the full
// in-memory Result.
//
// An entry is the JSON of storedEntry with the trace left out, then, for
// a traced run only, a newline and the trace in its binary file format
// (trace.Write). json.Marshal never emits a raw newline, so the first
// one ends the JSON head. At scale 0.05 a trace section runs to 2.8 MB
// against a head of a few KB; in binary it is about a third the size of
// its JSON and decodes many times faster. A Replay scenario's entry
// holds its analysis in the head and no trace section, so the artifact
// suite's store holds no traces at all.
//
// Entries written before observer records moved to their own keys carry
// inline "profile" and "critpath" fields; decoding ignores them, so such
// an entry still serves the Result a record-less simulation produces.
type storedEntry struct {
	Fingerprint string `json:"fingerprint"`
	Events      uint64 `json:"events"`
	Result      Result `json:"result"`
}

// Observer records live under their own store keys next to the result
// entry: the record kind's prefix, then the scenario fingerprint. A
// fingerprint always starts with the cluster config's JSON "{", so no
// record key equals a fingerprint.
const (
	profileKey  = "profile:"
	critPathKey = "critpath:"
)

// storedRecord is the persisted form of one observer record. It echoes
// the scenario fingerprint, as an entry does.
type storedRecord[T any] struct {
	Fingerprint string `json:"fingerprint"`
	Record      *T     `json:"record"`
}

// encodeStored serializes a Result for the store. res is a copy, so
// clearing its Trace leaves the shared cached Result intact.
func encodeStored(fp string, res Result) ([]byte, error) {
	tr := res.Trace
	res.Trace = nil
	head, err := json.Marshal(storedEntry{Fingerprint: fp, Events: res.Events, Result: res})
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
// unlikely) content-address collision or a misfiled entry. The decoded
// Result carries no observer records.
func decodeStored(data []byte, fp string) (Result, error) {
	head, tail, traced := bytes.Cut(data, []byte{'\n'})
	var e storedEntry
	if err := json.Unmarshal(head, &e); err != nil {
		return Result{}, fmt.Errorf("runner: stored entry undecodable: %w", err)
	}
	if e.Fingerprint != fp {
		return Result{}, fmt.Errorf("runner: stored entry fingerprint mismatch (got %q)", e.Fingerprint)
	}
	res := e.Result
	res.Events = e.Events
	if traced {
		tr, err := trace.Decode(tail)
		if err != nil {
			return Result{}, fmt.Errorf("runner: stored entry trace section: %w", err)
		}
		res.Trace = tr
	}
	return res, nil
}

// decodeRecord parses a stored observer record and verifies it echoes
// the requested fingerprint.
func decodeRecord[T any](data []byte, fp string) (*T, error) {
	var r storedRecord[T]
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("runner: stored record undecodable: %w", err)
	}
	if r.Fingerprint != fp {
		return nil, fmt.Errorf("runner: stored record fingerprint mismatch (got %q)", r.Fingerprint)
	}
	if r.Record == nil {
		return nil, errors.New("runner: stored record is empty")
	}
	return r.Record, nil
}

// runTiered resolves one claimed fingerprint through the store tier:
// decode a servable entry, or take the cross-process lock, simulate,
// and persist. Checking always simulates (the simcheck audit needs the
// live cluster, not a decoded result); profiling/critpath requests are
// served from the store only when the corresponding record is stored
// too, and an execution forced by a missing record persists it.
func (r *Runner) runTiered(s Scenario, fp string, st *store.Store, o Observers) (Result, string, error) {
	if st != nil {
		if res, ok := r.tryLoad(st, fp, o, false); ok {
			return res, SourceStore, nil
		}
		// Cross-process singleflight: Lock may return after another
		// holder persisted the entry, so re-check quietly (one submission
		// counts at most one store miss); otherwise simulate and persist
		// before the deferred release. Without the lock (timed out or
		// refused) simulate anyway: duplicated work, identical bytes.
		if release, err := st.Lock(fp); err == nil {
			defer release()
			if res, ok := r.tryLoad(st, fp, o, true); ok {
				return res, SourceStore, nil
			}
		}
	}
	res, err := r.executeCounted(s, o)
	if err == nil && st != nil {
		r.persist(st, fp, res)
	}
	return res, SourceSimulated, err
}

// tryLoad attempts to serve fp from the store: the result entry, then
// each observer record o asks for. Checking bypasses reads entirely (the
// audit needs a live simulation). A quiet load is a singleflight
// re-check: it never counts a miss — the submission already counted one
// — and reads through Peek so the store's own counters stay
// per-submission.
func (r *Runner) tryLoad(st *store.Store, fp string, o Observers, quiet bool) (Result, bool) {
	if o.Check {
		return Result{}, false
	}
	var res Result
	ok := r.load(st, fp, quiet, func(data []byte) (err error) {
		res, err = decodeStored(data, fp)
		return err
	})
	if ok && o.Profile {
		ok = r.load(st, profileKey+fp, quiet, func(data []byte) (err error) {
			res.Profile, err = decodeRecord[obs.Profile](data, fp)
			return err
		})
	}
	if ok && o.CritPath {
		ok = r.load(st, critPathKey+fp, quiet, func(data []byte) (err error) {
			res.CritPath, err = decodeRecord[critpath.Report](data, fp)
			return err
		})
	}
	if !ok {
		return Result{}, false
	}
	r.mu.Lock()
	r.stats.StoreHits++
	r.mu.Unlock()
	return res, true
}

// load reads one store key and decodes it. An absent key is a miss; a
// corrupt container counts corrupt; a payload that fails to decode is
// corruption the container checksum cannot see, so the key is
// invalidated and counted corrupt whichever load saw it. Either way the
// caller simulates, and the rewrite repairs the key. Quiet loads count
// no miss.
func (r *Runner) load(st *store.Store, key string, quiet bool, decode func([]byte) error) bool {
	read := st.Get
	if quiet {
		read = st.Peek
	}
	data, err := read(key)
	corrupt := !quiet && errors.Is(err, store.ErrCorrupt)
	if err == nil {
		if decode(data) == nil {
			return true
		}
		st.Invalidate(key)
		corrupt = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if corrupt {
		r.stats.StoreCorrupt++
	}
	if !quiet {
		r.stats.StoreMisses++
	}
	return false
}

// persist writes res under fp, then each observer record it holds under
// the record's own key. Results are deterministic, so every key only
// ever receives an equivalent value: concurrent writers race to install
// interchangeable bytes, no writer merges, and none can drop another's
// record. Persistence is best-effort: an encode or write failure leaves
// the store cold for that key, never wrong, and counts in
// Stats.StorePutFailed.
func (r *Runner) persist(st *store.Store, fp string, res Result) {
	data, err := encodeStored(fp, res)
	if err == nil {
		err = st.Put(fp, data)
	}
	failed := 0
	if err != nil {
		failed++
	} else {
		if res.Profile != nil && putRecord(st, profileKey+fp, fp, res.Profile) != nil {
			failed++
		}
		if res.CritPath != nil && putRecord(st, critPathKey+fp, fp, res.CritPath) != nil {
			failed++
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.stats.StoreWrites++
	}
	r.stats.StorePutFailed += failed
}

// putRecord persists one observer record under key. Like the entry it
// is best-effort: a failed encode or write leaves the record cold, and
// the next request that asks for it simulates and writes it again.
func putRecord[T any](st *store.Store, key, fp string, rec *T) error {
	data, err := json.Marshal(storedRecord[T]{Fingerprint: fp, Record: rec})
	if err != nil {
		return err
	}
	return st.Put(key, data)
}
