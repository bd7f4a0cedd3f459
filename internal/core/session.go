package core

import (
	"fmt"

	"clustersoc/internal/cluster"
	"clustersoc/internal/runner"
	"clustersoc/internal/stats"
	"clustersoc/internal/workloads"
)

// Session is the library face of the run-plane: a memoizing, optionally
// parallel scenario executor shared across an analysis session. Repeated
// Run calls with identical (system, workload, config) tuples simulate
// once; independent runs execute concurrently up to the session's worker
// bound. The package-level Run/Scalability helpers remain as sequential
// conveniences.
type Session struct {
	r *runner.Runner
}

// NewSession returns a session executing at most parallel simulations
// concurrently (<= 0 means GOMAXPROCS, 1 is fully sequential).
func NewSession(parallel int) *Session {
	return &Session{r: runner.New(parallel)}
}

// NewSessionWith wraps an existing runner — e.g. one a front end built
// from its run-plane flags, with a store and observers attached — so
// Session helpers and everything else sharing that runner dedupe
// against each other.
func NewSessionWith(r *runner.Runner) *Session { return &Session{r: r} }

// Stats reports the session's cache accounting.
func (s *Session) Stats() runner.Stats { return s.r.Stats() }

// NewScenario validates and normalizes a run request into the canonical
// runner.Scenario exactly the way Session.Run does: the workload must be
// registered, GPU workloads require a GPU, workloads that fetch their
// input over NFS require the file server, and the system needs at least
// one node. A RanksPerNode of 0 means the workload's own density,
// clamped to the node's CPU cores; a value from 1 to the core count is
// kept, and any other is refused. Front ends that accept serialized
// requests (cmd/simd) resolve through this so their fingerprints land on
// the same cache entries the library face warms.
func NewScenario(cfg cluster.Config, workload string, wcfg workloads.Config) (runner.Scenario, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return runner.Scenario{}, err
	}
	return scenarioOf(cfg, w, wcfg)
}

// scenarioOf validates and normalizes a run of w the way NewScenario
// does.
func scenarioOf(cfg cluster.Config, w workloads.Workload, wcfg workloads.Config) (runner.Scenario, error) {
	if w.GPUAccelerated() && cfg.NodeType.GPU == nil {
		return runner.Scenario{}, fmt.Errorf("core: workload %s needs a GPU; %s has none", w.Name(), cfg.Name)
	}
	if workloads.FetchesInput(w) && !cfg.FileServer {
		return runner.Scenario{}, fmt.Errorf("core: workload %s fetches its input from an NFS file server; %s has none (set FileServer)", w.Name(), cfg.Name)
	}
	if cfg.Nodes < 1 {
		return runner.Scenario{}, fmt.Errorf("core: %s has %d nodes; need at least one", cfg.Name, cfg.Nodes)
	}
	cores := cfg.NodeType.CPU.Cores
	if cores < 1 {
		return runner.Scenario{}, fmt.Errorf("core: %s nodes have %d CPU cores; need at least one to host a rank", cfg.Name, cores)
	}
	if cfg.RanksPerNode == 0 {
		cfg.RanksPerNode = min(w.RanksPerNode(), cores)
	}
	if cfg.RanksPerNode < 1 || cfg.RanksPerNode > cores {
		return runner.Scenario{}, fmt.Errorf("core: %s runs %d ranks per node; want 1 to %d, at most one per CPU core", cfg.Name, cfg.RanksPerNode, cores)
	}
	return runner.Scenario{Cluster: cfg, Workload: w.Name(), Config: wcfg}, nil
}

// Run executes a workload by name on the system at the given problem
// scale, memoized by the session.
func (s *Session) Run(cfg cluster.Config, workload string, scale float64) (cluster.Result, error) {
	return s.RunWithConfig(cfg, workload, workloads.Config{Scale: scale})
}

// RunWithConfig is Run with a full workload configuration.
func (s *Session) RunWithConfig(cfg cluster.Config, workload string, wcfg workloads.Config) (cluster.Result, error) {
	sc, err := NewScenario(cfg, workload, wcfg)
	if err != nil {
		return cluster.Result{}, err
	}
	res, err := s.r.Run(sc)
	return res.Result, err
}

// scalabilityScenario is the traced run of workload on nodes TX1 nodes
// over net: the preset scenario, which the Fig. 5/6 generators also
// trace. A point of fewer than one node is an error, not the preset's
// default size.
func scalabilityScenario(net NetworkChoice, workload string, nodes int, scale float64) (runner.Scenario, error) {
	if nodes < 1 {
		return runner.Scenario{}, fmt.Errorf("core: scalability point of %d nodes; need at least one", nodes)
	}
	sc, err := PresetScenario("tx1", nodes, net.Profile(), workload, workloads.Config{Scale: scale})
	sc.Cluster.Traced = true
	return sc, err
}

// ScalabilityPoint runs (or joins from the session cache) the traced run
// of a workload on nodes TX1 nodes over net and returns the full
// run-plane Result: the Trace for the exporters, and the CritPath report
// when recording is enabled. Scalability itself keeps no trace, so this
// is one more simulation.
func (s *Session) ScalabilityPoint(net NetworkChoice, workload string, nodes int, scale float64) (runner.Result, error) {
	sc, err := scalabilityScenario(net, workload, nodes, scale)
	if err != nil {
		return runner.Result{}, err
	}
	return s.r.Run(sc)
}

// Scalability runs the strong-scaling study of a workload on the TX1
// cluster over net across cluster sizes, with the replay decomposition at
// the largest. Each size is the Replay scenario the Fig. 5/6 generators
// submit, so a store they warmed serves it, and the per-size runs
// execute concurrently under a parallel session.
func (s *Session) Scalability(net NetworkChoice, workload string, sizes []int, scale float64) (*ScalabilityResult, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("core: scalability of %s needs at least one cluster size", workload)
	}
	var scenarios []runner.Scenario
	for _, n := range sizes {
		sc, err := scalabilityScenario(net, workload, n, scale)
		if err != nil {
			return nil, err
		}
		sc.Replay = true
		scenarios = append(scenarios, sc)
	}
	results, err := s.r.RunAll(scenarios)
	if err != nil {
		return nil, err
	}
	out := &ScalabilityResult{Workload: workload, Nodes: sizes}
	for _, res := range results {
		out.Runtimes = append(out.Runtimes, res.Runtime)
	}
	largest := results[len(results)-1]
	a := largest.Replay
	out.Efficiency = a.Efficiency
	// Decompose's TIdeal is the ideal-network replay.
	if a.TIdeal > 0 {
		out.IdealNetworkGain = largest.Runtime / a.TIdeal
	}
	if a.IdealLB > 0 {
		out.IdealLoadBalanceGain = largest.Runtime / a.IdealLB
	}
	out.CritPath = largest.CritPath
	for _, rt := range out.Runtimes {
		out.Speedups = append(out.Speedups, out.Runtimes[0]/rt)
	}
	if len(sizes) >= 3 {
		out.Fit, _ = stats.FitScaling(sizes, out.Runtimes)
	}
	return out, nil
}
