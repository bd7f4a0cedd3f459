// Package runner is the deterministic parallel run-plane: it executes
// independent scenario simulations on a bounded worker pool and memoizes
// results by scenario fingerprint, so a batch of experiment generators
// sharing one Runner simulates every distinct scenario exactly once.
//
// The simulator itself (internal/sim and everything built on it) is
// single-threaded and deterministic; a Scenario's result depends only on
// the Scenario. That makes independent simulations embarrassingly
// parallel: the Runner exploits it without changing any result —
// parallel and sequential execution produce bit-identical
// cluster.Result values, and RunAll returns results in submission order
// regardless of completion order. Both properties are locked in by the
// determinism tests in this package and the -race CI job.
package runner

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"clustersoc/internal/cluster"
	"clustersoc/internal/critpath"
	"clustersoc/internal/dimemas"
	"clustersoc/internal/obs"
	"clustersoc/internal/simcheck"
	"clustersoc/internal/store"
	"clustersoc/internal/workloads"
)

// Job names one co-scheduled workload: the Table IV collocation runs the
// GPU hpl and the CPU hpl side by side on the same nodes, NICs, and DRAM.
type Job struct {
	// Workload is a registry name (workloads.ByName).
	Workload string
	// RanksPerNode is the job's own process density on the scenario's
	// nodes (cluster.SpawnWith).
	RanksPerNode int
	Config       workloads.Config
}

// Scenario is one independent simulation: a workload (by registry name)
// on a fully specified system. Identical scenarios — same fingerprint —
// produce identical results, so the Runner simulates each fingerprint at
// most once per cache lifetime.
type Scenario struct {
	Cluster  cluster.Config
	Workload string
	Config   workloads.Config
	// Colocated co-schedules further jobs on the same cluster instance
	// (sharing its nodes, network, and DRAM), as the Table IV
	// CPU+GPU collocation experiment does. Usually empty.
	Colocated []Job
	// Replay keeps only the DIMEMAS analysis of the run (Result.Replay),
	// the numbers the Fig. 5/6 scaling study reads: the run is traced,
	// analysed on its own NIC, and the trace is dropped before the
	// result is cached or stored.
	Replay bool
}

// Fingerprint returns the canonical cache key: the cluster fingerprint,
// the workload name, the canonical workload-config key, any co-scheduled
// jobs, and "|replay" for a Replay scenario.
func (s Scenario) Fingerprint() string {
	var b strings.Builder
	b.WriteString(s.Cluster.Fingerprint())
	b.WriteString("|w=")
	b.WriteString(s.Workload)
	b.WriteString("|")
	b.WriteString(s.Config.Key())
	for _, j := range s.Colocated {
		fmt.Fprintf(&b, "|co=%s/%d/%s", j.Workload, j.RanksPerNode, j.Config.Key())
	}
	if s.Replay {
		b.WriteString("|replay")
	}
	return b.String()
}

// Result is a scenario's measurements. Cached results are shared between
// duplicate submissions — treat them (including the PerNode slice and
// the Trace) as immutable.
type Result struct {
	cluster.Result
	// JobThroughputs holds each job's own FLOP/s — the primary workload
	// first, then the Colocated jobs in declaration order. The combined
	// throughput of a collocation run is their sum, the way the paper
	// tallies its simultaneous hpl runs.
	JobThroughputs []float64
	// Replay is the DIMEMAS analysis of a Replay scenario's trace: the
	// efficiency decomposition and the ideal-load-balance replay on the
	// scenario's NIC. Such a Result carries no Trace.
	Replay *dimemas.Analysis `json:"replay,omitempty"`
	// Profile is the scenario's observability snapshot, present only when
	// it ran with Observers.Profile. It is excluded from JSON so result
	// artifacts are byte-identical with and without profiling; sidecar
	// files carry profiles instead. Cached results share one Profile —
	// treat it as immutable.
	Profile *obs.Profile `json:"-"`
	// CritPath is the scenario's critical-path analysis, present only when
	// it ran with Observers.CritPath. Like Profile it is excluded from
	// JSON — *.critpath.json sidecars carry reports — and shared between
	// cached results: treat it as immutable.
	CritPath *critpath.Report `json:"-"`
}

// Stats is the run-plane's accounting, reported by the CLIs. The wall
// fields are host-timing diagnostics: non-deterministic by nature, they
// are reported on stderr only and never enter result artifacts.
type Stats struct {
	// Submitted counts scenarios handed to Run/RunAll.
	Submitted int
	// Hits counts submissions served from the cache — duplicate
	// simulations avoided, including joins on a run already in flight.
	Hits int
	// Simulated counts distinct scenarios actually executed.
	Simulated int
	// Audited counts executed scenarios that passed the simcheck
	// physical-invariant audit (Observers.Check). Memoization means each
	// fingerprint is audited at most once per cache lifetime.
	Audited int
	// WallSeconds accumulates the host wall time of every executed
	// simulation, a Replay scenario's analysis included (worker-seconds:
	// with N workers busy it advances N times faster than the clock on
	// the wall).
	WallSeconds float64
	// MaxInFlight is the worker-occupancy high-water mark — the most
	// simulations that were ever executing at once.
	MaxInFlight int

	// The Store* fields account the persistent second tier (SetStore);
	// all five stay zero without one. Like the wall fields they are
	// host-side diagnostics — what is on disk varies run to run — and
	// never enter result artifacts.

	// StoreHits counts submissions served by decoding a persistent-store
	// entry instead of simulating.
	StoreHits int
	// StoreMisses counts store lookups that found no servable entry (no
	// entry, a corrupt one, or one missing a requested profile/critpath
	// record). Lookups are bypassed entirely under Observers.Check — the
	// audit needs a live simulation — and those do not count.
	StoreMisses int
	// StoreWrites counts executions this Runner persisted: a result entry
	// and the observer records stored next to it count once.
	StoreWrites int
	// StoreCorrupt counts entries and observer records that existed but
	// failed container verification or payload decoding; each was
	// treated as a miss and repaired by simulate-and-rewrite.
	StoreCorrupt int
	// StorePutFailed counts result entries and observer records that
	// failed to encode or to write. Each leaves its key cold; the result
	// is still served from the simulation.
	StorePutFailed int
}

// Snapshot renders the run-plane accounting as a "runner"-scoped obs
// snapshot. The scope is NonDeterministic — cache contents and wall
// times are host-side diagnostics — so these metrics merge cleanly with
// the store's snapshot for a service's /statusz without ever entering
// byte-compared artifacts.
func (s Stats) Snapshot() obs.Snapshot {
	reg := obs.NewRegistry()
	sc := reg.Scope("runner").NonDeterministic()
	sc.Counter("submitted").Add(float64(s.Submitted))
	sc.Counter("hit").Add(float64(s.Hits))
	sc.Counter("simulated").Add(float64(s.Simulated))
	sc.Counter("audited").Add(float64(s.Audited))
	sc.Counter("wall_seconds").Add(s.WallSeconds)
	sc.Gauge("max_in_flight").Set(float64(s.MaxInFlight))
	sc.Counter("store_hit").Add(float64(s.StoreHits))
	sc.Counter("store_miss").Add(float64(s.StoreMisses))
	sc.Counter("store_write").Add(float64(s.StoreWrites))
	sc.Counter("store_corrupt").Add(float64(s.StoreCorrupt))
	sc.Counter("store_put_failed").Add(float64(s.StorePutFailed))
	return reg.Snapshot()
}

// entry is one memoized scenario. The first submitter executes and
// closes done; later submitters of the same fingerprint block on done
// and share the result.
type entry struct {
	done chan struct{}
	res  Result
	err  error
	// source records how the entry was resolved by its first submitter
	// (SourceStore or SourceSimulated), for Outcome reporting.
	source string
}

// Sources an Outcome can report: which tier served the submission.
const (
	// SourceMemory: served by the in-memory fingerprint map — either a
	// completed cached entry or a join on a run already in flight.
	SourceMemory = "memory"
	// SourceStore: served by decoding a persistent-store entry.
	SourceStore = "store"
	// SourceSimulated: this submission executed the simulation.
	SourceSimulated = "simulated"
)

// Outcome describes how one submission was resolved — the per-request
// accounting a serving front end (cmd/simd) reports back to its clients,
// where Stats only aggregates.
type Outcome struct {
	// Source is the tier that produced this submission's bytes:
	// SourceMemory, SourceStore, or SourceSimulated.
	Source string `json:"source"`
	// Coalesced reports that the submission joined an entry another
	// submission had already installed (completed or still in flight) —
	// the duplicate-request singleflight at work.
	Coalesced bool `json:"coalesced,omitempty"`
}

// Runner is a concurrent, memoizing scenario executor. It is safe for
// use from multiple goroutines.
type Runner struct {
	workers int
	sem     chan struct{}
	// exec runs one scenario; tests substitute it to control timing.
	exec func(Scenario, Observers) (Result, error)

	mu        sync.Mutex
	cache     map[string]*entry
	stats     Stats
	observers Observers
	inFlight  int
	// store is the optional persistent second tier (SetStore): lookups
	// fall through the in-memory map to it, executions persist into it.
	store *store.Store
}

// Observers selects the passive observers attached to each executed
// scenario. None of them changes a simulated byte: a Result is
// byte-identical with any combination on or off, a property locked in
// by this package's determinism tests. Observers apply per execution —
// scenarios already cached keep whatever they were (or were not)
// observed with, and later duplicate submissions are served as-is.
type Observers struct {
	// Profile attaches a per-scenario observability profile
	// (Result.Profile): the run's full simulated metric snapshot plus
	// host wall time.
	Profile bool
	// Check validates each finished simulation against its physical
	// invariants (flow conservation at every port, send/receive balance
	// in every communicator, port-utilization sanity); a violation fails
	// the scenario with the full diagnostic list. The audit needs a live
	// simulation, so checking runs never read from the store.
	Check bool
	// CritPath records the causal event graph and attaches its
	// critical-path analysis (Result.CritPath): blame breakdown, what-if
	// bounds, the critical path itself.
	CritPath bool
}

// New returns a Runner executing at most workers simulations
// concurrently. workers <= 0 means GOMAXPROCS; workers == 1 is the
// sequential run-plane (still memoizing).
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers: workers,
		sem:     make(chan struct{}, workers),
		exec:    Execute,
		cache:   map[string]*entry{},
	}
}

// Workers returns the worker-pool bound.
func (r *Runner) Workers() int { return r.workers }

// SetObservers selects the observers attached to subsequently executed
// scenarios. Set it before submitting work.
func (r *Runner) SetObservers(o Observers) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observers = o
}

// Reports returns the critical-path reports of every completed,
// successfully simulated scenario, sorted by fingerprint so the
// collection is deterministic regardless of execution order. Reports are
// shared with cached results — treat them as immutable.
func (r *Runner) Reports() []*critpath.Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rs []*critpath.Report
	for _, e := range r.cache {
		select {
		case <-e.done:
		default:
			continue // still in flight
		}
		if e.err == nil && e.res.CritPath != nil {
			rs = append(rs, e.res.CritPath)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Fingerprint < rs[j].Fingerprint })
	return rs
}

// Profiles returns the profiles of every completed, successfully
// simulated scenario, sorted by fingerprint so the collection is
// deterministic regardless of execution order. Profiles are shared with
// cached results — treat them as immutable.
func (r *Runner) Profiles() []*obs.Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ps []*obs.Profile
	for _, e := range r.cache {
		select {
		case <-e.done:
		default:
			continue // still in flight
		}
		if e.err == nil && e.res.Profile != nil {
			ps = append(ps, e.res.Profile)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Fingerprint < ps[j].Fingerprint })
	return ps
}

// Stats returns a snapshot of the cache accounting.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Run executes one scenario (or joins an identical run already cached or
// in flight, or decodes it from the persistent store) and returns its
// measurements.
func (r *Runner) Run(s Scenario) (Result, error) {
	res, _, err := r.RunTracked(s)
	return res, err
}

// RunTracked is Run with per-submission accounting: the Outcome reports
// which cache tier served the submission and whether it coalesced onto
// another submission's entry. The Result is identical to Run's.
func (r *Runner) RunTracked(s Scenario) (Result, Outcome, error) {
	fp := s.Fingerprint()
	r.mu.Lock()
	r.stats.Submitted++
	if e, ok := r.cache[fp]; ok {
		r.stats.Hits++
		r.mu.Unlock()
		<-e.done
		return e.res, Outcome{Source: SourceMemory, Coalesced: true}, e.err
	}
	e := &entry{done: make(chan struct{})}
	r.cache[fp] = e
	r.mu.Unlock()

	r.sem <- struct{}{} // acquire a worker slot
	r.mu.Lock()
	o, st := r.observers, r.store
	r.mu.Unlock()
	e.res, e.source, e.err = r.runTiered(s, fp, st, o)
	<-r.sem
	close(e.done)
	return e.res, Outcome{Source: e.source}, e.err
}

// executeCounted runs one scenario through the executor with the
// worker-occupancy, audit, and wall accounting attached. Only actual
// executions pass through here — cache and store hits never do, so
// Stats.Simulated counts simulations, not submissions.
func (r *Runner) executeCounted(s Scenario, o Observers) (Result, error) {
	r.mu.Lock()
	r.stats.Simulated++
	r.inFlight++
	if r.inFlight > r.stats.MaxInFlight {
		r.stats.MaxInFlight = r.inFlight
	}
	r.mu.Unlock()
	start := time.Now()
	res, err := r.exec(s, o)
	wall := time.Since(start).Seconds()
	r.mu.Lock()
	r.inFlight--
	if o.Check && err == nil {
		r.stats.Audited++
	}
	r.stats.WallSeconds += wall
	r.mu.Unlock()
	return res, err
}

// RunAll executes a batch. Distinct scenarios run concurrently up to the
// worker bound; duplicates (within the batch or against earlier runs)
// simulate once. Results are returned in submission order regardless of
// completion order. The returned error is the first failing scenario's,
// in submission order; results of successful scenarios are valid either
// way.
func (r *Runner) RunAll(scenarios []Scenario) ([]Result, error) {
	results := make([]Result, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i := range scenarios {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Run(scenarios[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Execute runs one scenario directly — no cache, no pool — with the
// observers o attached. Execute(s, Observers{}) is the reference
// implementation the determinism tests compare against. With o.Check,
// match-time validation is armed before any rank spawns and the finished
// run is audited; with o.Profile and o.CritPath, the Result carries the
// profile and the critical-path report. None of them alters the
// simulation. A Replay scenario is traced whatever its Cluster.Traced
// says; its Result carries the analysis of the trace instead of the
// trace.
func Execute(s Scenario, o Observers) (Result, error) {
	start := time.Now()
	w, err := workloads.ByName(s.Workload)
	if err != nil {
		return Result{}, err
	}
	var reg *obs.Registry
	if o.Profile {
		reg = obs.NewRegistry()
	}
	cfg := s.Cluster
	cfg.Traced = cfg.Traced || s.Replay
	cl := cluster.New(cfg)
	cl.Instrument(reg)
	if o.Check {
		cl.EnableChecking()
	}
	if o.CritPath {
		cl.RecordCritPath()
	}
	jobs := []*cluster.Job{cl.Spawn(w.Body(s.Config))}
	for _, j := range s.Colocated {
		wj, err := workloads.ByName(j.Workload)
		if err != nil {
			return Result{}, err
		}
		jobs = append(jobs, cl.SpawnWith(j.RanksPerNode, wj.Body(j.Config)))
	}
	res := Result{Result: cl.Finish()}
	for _, j := range jobs {
		res.JobThroughputs = append(res.JobThroughputs, j.Throughput())
	}
	if o.Check {
		if err := simcheck.Error(simcheck.AuditCluster(cl, res.Result)); err != nil {
			return res, fmt.Errorf("scenario %q on %q failed its audit: %w", s.Workload, s.Cluster.Name, err)
		}
	}
	if s.Replay {
		a, err := dimemas.Analyze(res.Trace, dimemas.NICModel(s.Cluster.Network))
		if err != nil {
			return res, fmt.Errorf("scenario %q on %q: %w", s.Workload, s.Cluster.Name, err)
		}
		res.Replay, res.Trace = &a, nil
	}
	name := fmt.Sprintf("%s on %s", s.Workload, s.Cluster.Name)
	if o.CritPath {
		res.CritPath = critpath.Analyze(cl.CritPath(), name, s.Fingerprint(), res.Runtime)
	}
	if o.Profile {
		res.Profile = &obs.Profile{
			Scenario:    name,
			Fingerprint: s.Fingerprint(),
			Sim:         reg.Snapshot(),
			Wall:        &obs.WallStats{Note: obs.WallNote, Seconds: time.Since(start).Seconds()},
		}
	}
	return res, nil
}
