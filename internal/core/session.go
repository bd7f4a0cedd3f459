package core

import (
	"fmt"

	"clustersoc/internal/cluster"
	"clustersoc/internal/dimemas"
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
// input over NFS require the file server, RanksPerNode is derived from
// the workload (clamped by the node's core count), and the result must
// have at least one node and one rank per node. Front ends that
// accept serialized requests (cmd/simd) resolve through this so their
// fingerprints land on the same cache entries the library face warms.
func NewScenario(cfg cluster.Config, workload string, wcfg workloads.Config) (runner.Scenario, error) {
	return scenario(cfg, workload, wcfg)
}

// scenario validates and normalizes a run request the way core.Run does.
func scenario(cfg cluster.Config, workload string, wcfg workloads.Config) (runner.Scenario, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return runner.Scenario{}, err
	}
	if w.GPUAccelerated() && cfg.NodeType.GPU == nil {
		return runner.Scenario{}, fmt.Errorf("core: workload %s needs a GPU; %s has none", workload, cfg.Name)
	}
	if workloads.FetchesInput(w) && !cfg.FileServer {
		return runner.Scenario{}, fmt.Errorf("core: workload %s fetches its input from an NFS file server; %s has none (set FileServer)", workload, cfg.Name)
	}
	cfg.RanksPerNode = w.RanksPerNode()
	if cfg.NodeType.CPU.Cores < cfg.RanksPerNode {
		cfg.RanksPerNode = cfg.NodeType.CPU.Cores
	}
	if cfg.Nodes < 1 {
		return runner.Scenario{}, fmt.Errorf("core: %s has %d nodes; need at least one", cfg.Name, cfg.Nodes)
	}
	if cfg.RanksPerNode < 1 {
		return runner.Scenario{}, fmt.Errorf("core: %s nodes have %d CPU cores; need at least one to host a rank", cfg.Name, cfg.NodeType.CPU.Cores)
	}
	return runner.Scenario{Cluster: cfg, Workload: workload, Config: wcfg}, nil
}

// Run executes a workload by name on the system at the given problem
// scale, memoized by the session.
func (s *Session) Run(cfg cluster.Config, workload string, scale float64) (cluster.Result, error) {
	return s.RunWithConfig(cfg, workload, workloads.Config{Scale: scale})
}

// RunWithConfig is Run with a full workload configuration.
func (s *Session) RunWithConfig(cfg cluster.Config, workload string, wcfg workloads.Config) (cluster.Result, error) {
	sc, err := scenario(cfg, workload, wcfg)
	if err != nil {
		return cluster.Result{}, err
	}
	res, err := s.r.Run(sc)
	return res.Result, err
}

// scalabilityScenario builds the traced scenario Scalability simulates
// at one cluster size, so callers wanting the raw run-plane Result (the
// Trace for exporters, the CritPath report) hit the same cache entries.
// It validates the point as Run does: a point no run could simulate is
// an error here, not a panic on a runner worker.
func scalabilityScenario(cfg cluster.Config, workload string, nodes int, scale float64) (runner.Scenario, error) {
	cfg.Nodes = nodes
	sc, err := scenario(cfg, workload, workloads.Config{Scale: scale})
	if err != nil {
		return runner.Scenario{}, err
	}
	sc.Cluster.Traced = true
	return sc, nil
}

// ScalabilityPoint runs (or joins from the session cache) the traced
// scenario Scalability simulates at one cluster size and returns the
// full run-plane Result: the Trace for the exporters, and the CritPath
// report when recording is enabled. After a Scalability call covering
// the same size it is a guaranteed cache hit.
func (s *Session) ScalabilityPoint(cfg cluster.Config, workload string, nodes int, scale float64) (runner.Result, error) {
	sc, err := scalabilityScenario(cfg, workload, nodes, scale)
	if err != nil {
		return runner.Result{}, err
	}
	return s.r.Run(sc)
}

// Scalability traces a workload across cluster sizes on the system type
// of cfg (the node/network choice; Nodes is overridden per point) and
// runs the replay decomposition. The per-size runs are independent, so
// they execute concurrently under a parallel session.
func (s *Session) Scalability(cfg cluster.Config, workload string, sizes []int, scale float64) (*ScalabilityResult, error) {
	var scenarios []runner.Scenario
	for _, n := range sizes {
		sc, err := scalabilityScenario(cfg, workload, n, scale)
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, sc)
	}
	results, err := s.r.RunAll(scenarios)
	if err != nil {
		return nil, err
	}
	out := &ScalabilityResult{Workload: workload, Nodes: sizes}
	for i, n := range sizes {
		res := results[i]
		out.Runtimes = append(out.Runtimes, res.Runtime)
		if n == sizes[len(sizes)-1] {
			a, err := dimemas.Analyze(res.Trace, dimemas.NICModel(cfg.Network))
			if err != nil {
				return nil, err
			}
			out.Efficiency = a.Efficiency
			// Decompose's TIdeal is the ideal-network replay.
			if a.TIdeal > 0 {
				out.IdealNetworkGain = res.Runtime / a.TIdeal
			}
			if a.IdealLB > 0 {
				out.IdealLoadBalanceGain = res.Runtime / a.IdealLB
			}
		}
	}
	for _, rt := range out.Runtimes {
		out.Speedups = append(out.Speedups, out.Runtimes[0]/rt)
	}
	if len(sizes) >= 3 {
		out.Fit, _ = stats.FitScaling(sizes, out.Runtimes)
	}
	return out, nil
}
