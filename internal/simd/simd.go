// Package simd is simulation-as-a-service: an HTTP/JSON front end over
// the memoized run-plane. Clients POST batches of serializable scenario
// requests (registry workloads on named system presets or fully
// specified cluster configs); the server resolves each request to the
// run-plane's canonical fingerprint and serves it through the two cache
// tiers — the in-memory fingerprint map, then the persistent
// content-addressed store, then simulation. Results are deterministic,
// so every scenario anyone has ever simulated against a shared store is
// a pure-decode answer for every later client.
//
// The serving properties the server layers on top of the run-plane:
//
//   - Cross-client coalescing. Duplicate in-flight requests for one
//     fingerprint — from any number of connections — join the same
//     execution via the run-plane's singleflight; a batch of N clients
//     asking the same cold question costs one simulation.
//
//   - Admission control. A bounded pending queue: batches that would
//     push the server past its bound are refused with 429 and a
//     Retry-After hint instead of queueing unboundedly.
//
//   - Per-client rate limits. A token bucket per client identity
//     (X-Client header, else the remote host) bounds sustained request
//     rate independently of queue pressure.
//
//   - Streaming. Results return as NDJSON, one line per scenario as it
//     completes, so a mixed warm/cold batch streams its cache hits
//     immediately instead of waiting on the slowest simulation.
//
//   - Graceful drain. On shutdown the server stops admitting new work
//     and lets in-flight batches stream to completion.
package simd

import (
	"fmt"

	"clustersoc/internal/cluster"
	"clustersoc/internal/core"
	"clustersoc/internal/faults"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/workloads"
)

// Request is one serializable scenario ask. The zero knobs mean the
// paper's defaults (8-node TX1 cluster, 10 GbE, full problem scale), so
// {"workload":"cg"} is a complete request.
type Request struct {
	// ID is an opaque client correlation tag echoed on the response line.
	ID string `json:"id,omitempty"`
	// Workload names a registry workload (hpl, jacobi, cloverleaf,
	// tealeaf2d/3d, alexnet, googlenet, and the NPB suite).
	Workload string `json:"workload"`
	// System picks a named preset (core.PresetScenario): "tx1" (default),
	// "gtx980" (the discrete-GPU baseline), "cavium" (the ThunderX
	// server) or "xgene" (the X-Gene 1 server). Ignored when Cluster is
	// set.
	System string `json:"system,omitempty"`
	// Nodes is the cluster size, or for "cavium" and "xgene" the MPI rank
	// count. Zero means the paper's: 8 TX1 nodes, 2 GTX 980 hosts, 32
	// Cavium ranks, 8 X-Gene ranks.
	Nodes int `json:"nodes,omitempty"`
	// Network picks the TX1 cluster's NIC: "10GbE" (default), "1GbE", or
	// "ideal". The other presets ignore it, but it must still name one.
	Network string `json:"network,omitempty"`
	// Scale, GPUWorkRatio, HalfPrecision, and WeakScaling are the
	// workload knobs (see workloads.Config); zero values mean defaults.
	Scale         float64 `json:"scale,omitempty"`
	GPUWorkRatio  float64 `json:"gpu_work_ratio,omitempty"`
	HalfPrecision bool    `json:"half_precision,omitempty"`
	WeakScaling   bool    `json:"weak_scaling,omitempty"`
	// Traced enables Extrae-style trace recording (a distinct
	// fingerprint: traced and untraced runs never collide).
	Traced bool `json:"traced,omitempty"`
	// Faults attaches a seeded fault plan; it participates in the
	// fingerprint, so faulted variants are distinct cache entries.
	Faults *faults.Plan `json:"faults,omitempty"`
	// Cluster, when set, bypasses the presets and simulates the workload
	// on this fully specified system, normalized by core.NewScenario (so
	// fingerprints match the library face): a RanksPerNode of 0 means the
	// workload's own density, and an explicit one is kept.
	Cluster *cluster.Config `json:"cluster,omitempty"`
}

// config assembles the workload knobs.
func (q Request) config() workloads.Config {
	return workloads.Config{
		Scale:         q.Scale,
		GPUWorkRatio:  q.GPUWorkRatio,
		HalfPrecision: q.HalfPrecision,
		WeakScaling:   q.WeakScaling,
	}
}

// netProfile resolves the NIC name.
func netProfile(name string) (network.Profile, error) {
	switch name {
	case "", "10GbE":
		return network.TenGigE, nil
	case "1GbE":
		return network.GigE, nil
	case "ideal":
		return network.Ideal, nil
	}
	return network.Profile{}, fmt.Errorf("simd: unknown network %q (want 1GbE, 10GbE, or ideal)", name)
}

// Resolve turns the request into the run-plane's canonical Scenario.
// Preset requests resolve through core.PresetScenario, the builder the
// experiment generators use, so a store warmed by cmd/experiments serves
// them as pure decodes; custom-cluster requests normalize through
// core.NewScenario, matching the library face.
func (q Request) Resolve() (runner.Scenario, error) {
	if q.Workload == "" {
		return runner.Scenario{}, fmt.Errorf("simd: request missing workload")
	}
	if q.Nodes < 0 {
		return runner.Scenario{}, fmt.Errorf("simd: negative node count %d", q.Nodes)
	}
	sc, err := q.scenario()
	if err != nil {
		return runner.Scenario{}, err
	}
	if q.Traced {
		sc.Cluster.Traced = true
	}
	if q.Faults != nil {
		sc.Cluster.Faults = q.Faults
	}
	return sc, nil
}

// scenario builds the request's system: its Cluster, else its preset.
func (q Request) scenario() (runner.Scenario, error) {
	if q.Cluster != nil {
		return core.NewScenario(*q.Cluster, q.Workload, q.config())
	}
	prof, err := netProfile(q.Network)
	if err != nil {
		return runner.Scenario{}, err
	}
	return core.PresetScenario(q.System, q.Nodes, prof, q.Workload, q.config())
}

// Batch is the request body of POST /simulate.
type Batch struct {
	Requests []Request `json:"requests"`
}

// Response is one NDJSON line of the result stream: the request's echo
// tags, the canonical fingerprint it resolved to, how it was served, and
// the full run-plane Result (or the scenario's error). Lines stream in
// completion order; Index ties each back to its request.
type Response struct {
	ID          string `json:"id,omitempty"`
	Index       int    `json:"index"`
	Fingerprint string `json:"fingerprint"`
	// Source is which tier served this submission: "memory", "store", or
	// "simulated". Coalesced marks a join on another request's run.
	Source    string `json:"source,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	// Result is byte-identical to marshalling the run-plane's Result
	// directly — the serving layer adds nothing and strips nothing.
	Result *runner.Result `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}
