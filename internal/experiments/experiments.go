// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated testbed. Each generator returns structured
// rows (and can render itself as text), and is exercised by
// cmd/experiments, the top-level benchmarks, and the integration tests.
//
// DESIGN.md carries the experiment index; EXPERIMENTS.md records the
// paper-vs-measured comparison produced from these generators.
package experiments

import (
	"fmt"
	"strings"

	"clustersoc/internal/core"
	"clustersoc/internal/faults"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/workloads"
)

// Options tunes how heavy the regeneration is.
type Options struct {
	// Scale is the problem scale passed to every workload (1 = paper
	// size). The default used by the CLI and benches is 0.08: shapes are
	// scale-invariant (see workloads), runs are ~12x cheaper.
	Scale float64
	// Sizes are the cluster sizes swept (paper: 2, 4, 6, 8).
	Sizes []int
	// Runner is the scenario run-plane the generators submit to. Sharing
	// one Runner across generators dedupes identical simulations between
	// artifacts (Fig. 3 and Table II re-place the Fig. 1 runs; Fig. 9
	// re-sweeps them; Table VI re-runs the NPB set) and, with more than
	// one worker, runs independent scenarios concurrently. Nil means a
	// private sequential runner per generator call — the seed behaviour.
	Runner *runner.Runner
	// Faults attaches a fault plan to every scenario the generators
	// declare. A nil or zero (disabled) plan reproduces the fault-free
	// artifacts byte-for-byte; the Faults generator builds its own plans
	// and ignores this field.
	Faults *faults.Plan
}

// DefaultOptions returns the standard regeneration settings.
func DefaultOptions() Options {
	return Options{Scale: 0.08, Sizes: []int{2, 4, 6, 8}}
}

func (o Options) scale() float64 {
	if o.Scale <= 0 || o.Scale > 1 {
		return 0.08
	}
	return o.Scale
}

func (o Options) sizes() []int {
	if len(o.Sizes) == 0 {
		return []int{2, 4, 6, 8}
	}
	return o.Sizes
}

func (o Options) runner() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return runner.New(1)
}

// runAll submits a generator's declared scenario set to the run-plane,
// attaching the Options-level fault plan (if any) to every scenario —
// the plan participates in the cluster fingerprint, so faulted and
// fault-free variants of one run never collide in the cache. Every
// scenario references registry workloads, so an error is a programming
// bug, not an input condition.
func runAll(o Options, scenarios []runner.Scenario) []runner.Result {
	if o.Faults != nil {
		for i := range scenarios {
			scenarios[i].Cluster.Faults = o.Faults
		}
	}
	res, err := o.runner().RunAll(scenarios)
	if err != nil {
		panic(fmt.Sprintf("experiments: scenario failed: %v", err))
	}
	return res
}

// preset declares a registry workload's run on a named system through
// core.PresetScenario, the builder every front end shares. The
// generators name registry workloads on valid sizes, so an error is a
// programming bug.
func preset(system string, n int, nic network.Profile, workload string, wcfg workloads.Config) runner.Scenario {
	sc, err := core.PresetScenario(system, n, nic, workload, wcfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return sc
}

// config is the workload configuration at the Options' scale.
func (o Options) config() workloads.Config { return workloads.Config{Scale: o.scale()} }

// StandardScenario declares the canonical TX1 run the figure generators
// declare for (workload, nodes, NIC, scale) — same fingerprint, so a
// store warmed by one artifact regeneration serves any front end
// (cmd/simd, the test suites) requesting the same scenario.
func StandardScenario(workload string, nodes int, prof network.Profile, scale float64) (runner.Scenario, error) {
	return core.PresetScenario("tx1", nodes, prof, workload, workloads.Config{Scale: scale})
}

// TracedScenario declares a workload's standard TX1 run with trace
// recording enabled — the scenario behind cmd/experiments -trace-out.
// Traced participates in the cluster fingerprint, so it never collides
// with the figures' untraced runs in the run-plane cache.
func TracedScenario(o Options, workload string, nodes int, prof network.Profile) (runner.Scenario, error) {
	sc, err := StandardScenario(workload, nodes, prof, o.scale())
	sc.Cluster.Traced = true
	return sc, err
}

// allWorkloads returns the paper's Fig. 1/2 x-axis: the seven GPGPU codes
// followed by the NPB suite.
func allWorkloads() []workloads.Workload {
	return append(workloads.GPUWorkloads(), workloads.NPBWorkloads()...)
}

// table is a tiny text-table builder shared by the generators' String
// methods.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
