package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"clustersoc/internal/obs"
	"clustersoc/internal/runner"
)

// Config tunes a Server. The zero value of every field means its
// default.
type Config struct {
	// Runner is the run-plane the server fronts (required). Attach a
	// persistent store to it (runner.SetStore) to make the service's
	// answers durable and shared across replicas.
	Runner *runner.Runner
	// MaxPending bounds admitted-but-unfinished scenarios across all
	// clients; batches that would exceed it get 429 + Retry-After.
	// Default 256. It also bounds scenarios per POST: a larger batch
	// gets 413, since it could never be admitted whole.
	MaxPending int
	// RatePerSec is the per-client token refill rate (tokens are
	// scenario requests). 0 means unlimited.
	RatePerSec float64
	// Burst is the per-client bucket size (default max(1, RatePerSec)),
	// and so, with a rate, also caps scenarios per POST.
	Burst int
}

// Server is the simulation service: an http.Handler serving /simulate,
// /statusz, and /healthz over one shared run-plane. Create with
// NewServer, mount Handler on any http.Server, and call Drain before
// shutting that server down.
type Server struct {
	r          *runner.Runner
	maxPending int64
	maxBatch   int
	lim        *limiter
	start      time.Time

	pending  atomic.Int64
	draining atomic.Bool

	// Host-side serving counters (non-deterministic diagnostics, exposed
	// via /statusz as a "simd" obs scope).
	batches       atomic.Uint64
	accepted      atomic.Uint64
	rejectedQueue atomic.Uint64
	rejectedRate  atomic.Uint64
	rejectedBatch atomic.Uint64
	badRequests   atomic.Uint64
	served        atomic.Uint64
	servedMemory  atomic.Uint64
	servedStore   atomic.Uint64
	simulated     atomic.Uint64
	coalesced     atomic.Uint64
	failed        atomic.Uint64
	pendingPeak   atomic.Int64
}

// NewServer assembles a Server over cfg.Runner.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("simd: Config.Runner is required")
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 256
	}
	maxBatch := cfg.MaxPending
	lim := newLimiter(cfg.RatePerSec, cfg.Burst)
	if lim != nil && float64(maxBatch) > lim.burst {
		// A batch beyond a full bucket would be refused with 429 forever.
		maxBatch = int(lim.burst)
	}
	return &Server{
		r:          cfg.Runner,
		maxPending: int64(cfg.MaxPending),
		maxBatch:   maxBatch,
		lim:        lim,
		start:      time.Now(),
	}, nil
}

// Runner exposes the served run-plane.
func (s *Server) Runner() *runner.Runner { return s.r }

// Drain switches the server into drain mode: new /simulate batches are
// refused with 503 while in-flight batches keep streaming. Call it just
// before http.Server.Shutdown, which then waits for the active streams.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/simulate", s.handleSimulate)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// admit reserves n pending slots, or reports how many are outstanding.
func (s *Server) admit(n int64) bool {
	for {
		cur := s.pending.Load()
		if cur+n > s.maxPending {
			return false
		}
		if s.pending.CompareAndSwap(cur, cur+n) {
			for {
				peak := s.pendingPeak.Load()
				if cur+n <= peak || s.pendingPeak.CompareAndSwap(peak, cur+n) {
					break
				}
			}
			return true
		}
	}
}

// clientID identifies the caller for rate limiting: the self-declared
// X-Client header when present (cooperating tools name themselves), else
// the remote host.
func clientID(req *http.Request) string {
	if c := req.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(req.RemoteAddr)
	if err != nil {
		return req.RemoteAddr
	}
	return host
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfter writes a 429 with a Retry-After hint of at least one
// second (the header is whole seconds).
func retryAfter(w http.ResponseWriter, wait time.Duration, format string, args ...any) {
	secs := int(wait / time.Second)
	if wait%time.Second != 0 || secs < 1 {
		secs++
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, http.StatusTooManyRequests, format, args...)
}

// decodeBatch parses a POST /simulate body. Unknown fields are errors, so
// a misspelled knob is refused instead of silently meaning its default.
func decodeBatch(r io.Reader) (Batch, error) {
	var batch Batch
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&batch)
	return batch, err
}

func (s *Server) handleSimulate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a batch of scenario requests")
		return
	}
	s.batches.Add(1)
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	batch, err := decodeBatch(http.MaxBytesReader(w, req.Body, 16<<20))
	if err != nil {
		s.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "undecodable batch: %v", err)
		return
	}
	n := len(batch.Requests)
	if n == 0 {
		s.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if n > s.maxBatch {
		s.rejectedBatch.Add(1)
		httpError(w, http.StatusRequestEntityTooLarge,
			"batch of %d exceeds the %d-scenario limit; split it", n, s.maxBatch)
		return
	}
	// Resolve the whole batch before admitting any of it: an invalid
	// request rejects the batch, so every admitted scenario is runnable
	// and the stream carries only simulation results (or failures).
	scenarios := make([]runner.Scenario, n)
	for i, q := range batch.Requests {
		sc, err := q.Resolve()
		if err != nil {
			s.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, "request %d: %v", i, err)
			return
		}
		scenarios[i] = sc
	}
	if ok, wait := s.lim.take(clientID(req), n, time.Now()); !ok {
		s.rejectedRate.Add(1)
		retryAfter(w, wait, "client %s over its request rate", clientID(req))
		return
	}
	if !s.admit(int64(n)) {
		s.rejectedQueue.Add(1)
		retryAfter(w, time.Second, "pending queue full (%d scenarios)", s.pending.Load())
		return
	}
	s.accepted.Add(uint64(n))

	// Stream: one goroutine per scenario submits to the run-plane (which
	// bounds actual simulation concurrency and coalesces duplicates);
	// lines go out in completion order, flushed per line.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	lines := make(chan []byte, n)
	for i := range scenarios {
		go func(i int) {
			res, out, err := s.r.RunTracked(scenarios[i])
			line := Response{
				ID:          batch.Requests[i].ID,
				Index:       i,
				Fingerprint: scenarios[i].Fingerprint(),
				Source:      out.Source,
				Coalesced:   out.Coalesced,
			}
			if err == nil {
				line.Result = &res
			}
			b := s.encodeLine(line, err)
			// Free the slot before the line can reach the client, so a
			// client that has read it never sees it pending.
			s.pending.Add(-1)
			lines <- b
		}(i)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Write(<-lines); err != nil {
			// The client went away mid-stream; drain the remaining
			// results so the pending accounting settles, then stop.
			for j := i + 1; j < n; j++ {
				<-lines
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// encodeLine renders one NDJSON line and counts how it was served. A
// result JSON cannot encode (a +Inf runtime from a degenerate custom
// cluster) becomes an error line, so the stream still carries one line
// per request.
func (s *Server) encodeLine(line Response, err error) []byte {
	if err == nil {
		b, merr := json.Marshal(line)
		if merr == nil {
			s.served.Add(1)
			switch line.Source {
			case runner.SourceMemory:
				s.servedMemory.Add(1)
			case runner.SourceStore:
				s.servedStore.Add(1)
			case runner.SourceSimulated:
				s.simulated.Add(1)
			}
			if line.Coalesced {
				s.coalesced.Add(1)
			}
			return append(b, '\n')
		}
		line.Result = nil
		err = fmt.Errorf("unencodable result: %v", merr)
	}
	s.failed.Add(1)
	line.Error = err.Error()
	b, _ := json.Marshal(line) // no floats left: cannot fail
	return append(b, '\n')
}

// Status is the /statusz body: service posture plus the merged obs
// snapshot of the serving layer, the run-plane, and the store.
type Status struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Draining      bool         `json:"draining"`
	Pending       int64        `json:"pending"`
	MaxPending    int64        `json:"max_pending"`
	Workers       int          `json:"workers"`
	Runner        runner.Stats `json:"runner"`
	StoreDir      string       `json:"store_dir,omitempty"`
	StoreSchema   int          `json:"store_schema,omitempty"`
	// Metrics merges the "simd", "runner", and "store" scopes through
	// the obs snapshot machinery — every counter a dashboard needs, in
	// one sorted, stable list.
	Metrics obs.Snapshot `json:"metrics"`
}

// snapshot renders the serving-layer counters as a "simd"-scoped obs
// snapshot. Like the store's, the scope is NonDeterministic: traffic is
// host-side state.
func (s *Server) snapshot() obs.Snapshot {
	reg := obs.NewRegistry()
	sc := reg.Scope("simd").NonDeterministic()
	sc.Counter("batches").Add(float64(s.batches.Load()))
	sc.Counter("accepted").Add(float64(s.accepted.Load()))
	sc.Counter("rejected_queue").Add(float64(s.rejectedQueue.Load()))
	sc.Counter("rejected_rate").Add(float64(s.rejectedRate.Load()))
	sc.Counter("rejected_batch").Add(float64(s.rejectedBatch.Load()))
	sc.Counter("bad_requests").Add(float64(s.badRequests.Load()))
	sc.Counter("served").Add(float64(s.served.Load()))
	sc.Counter("served_memory").Add(float64(s.servedMemory.Load()))
	sc.Counter("served_store").Add(float64(s.servedStore.Load()))
	sc.Counter("simulated").Add(float64(s.simulated.Load()))
	sc.Counter("coalesced").Add(float64(s.coalesced.Load()))
	sc.Counter("failed").Add(float64(s.failed.Load()))
	sc.Gauge("pending").Set(float64(s.pending.Load()))
	sc.Gauge("pending_peak").Set(float64(s.pendingPeak.Load()))
	return reg.Snapshot()
}

func (s *Server) handleStatusz(w http.ResponseWriter, req *http.Request) {
	stats := s.r.Stats()
	st := Status{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Pending:       s.pending.Load(),
		MaxPending:    s.maxPending,
		Workers:       s.r.Workers(),
		Runner:        stats,
		Metrics:       obs.Merge(s.snapshot(), stats.Snapshot()),
	}
	if ps := s.r.Store(); ps != nil {
		st.StoreDir = ps.Dir()
		st.StoreSchema = ps.Schema()
		st.Metrics = obs.Merge(st.Metrics, ps.Snapshot())
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}
