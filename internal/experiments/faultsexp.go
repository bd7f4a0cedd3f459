package experiments

import (
	"fmt"

	"clustersoc/internal/faults"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
)

// The fault study extends the paper's failure-free evaluation with the
// resilience question its premise raises: commodity SoC boards, PCIe-slot
// NICs, and unmanaged switches fail and straggle far more than the
// server-class machines they displace (the pain point the Arm-testbed
// experience reports call out). It answers two things on the simulated
// 8-node TX1 10 GbE cluster running jacobi:
//
//  1. how much each fault class alone costs (straggler node, degraded
//     link, link flaps, message loss, crash+restart), and
//  2. where the checkpoint-interval sweet spot sits for the crash model,
//     compared against the Young/Daly first-order optimum
//     sqrt(2 C MTBF).
//
// All fault parameters derive from the baseline (fault-free) runtime T,
// so the study is meaningful at any -scale.

// FaultSeed is the study's fixed plan seed: the point is a reproducible
// fault universe, not a fault distribution sweep.
const FaultSeed = 42

// FaultClassRow is one fault class's cost relative to the baseline.
type FaultClassRow struct {
	Class    string
	Runtime  float64
	Slowdown float64 // runtime / fault-free runtime
	Stats    faults.Stats
}

// CheckpointRow is one point of the checkpoint-interval sweep.
type CheckpointRow struct {
	Label           string
	Interval        float64 // seconds between checkpoints; 0 = never
	Runtime         float64
	Slowdown        float64
	Checkpoints     uint64
	OverheadSeconds float64 // time spent taking checkpoints
	ReworkSeconds   float64 // lost work redone after crashes
}

// FaultStudy holds both parts of the study.
type FaultStudy struct {
	Workload        string
	Nodes           int
	BaselineRuntime float64
	Classes         []FaultClassRow
	DalyInterval    float64 // Young/Daly optimum for the sweep's crash plan
	Sweep           []CheckpointRow
}

// faultScenario is the study's fixed subject with one plan attached.
func faultScenario(o Options, plan *faults.Plan) runner.Scenario {
	sc := preset("tx1", 8, network.TenGigE, "jacobi", o.config())
	sc.Cluster.Faults = plan
	return sc
}

// Faults runs the fault-injection study. It ignores Options.Faults — the
// study builds its own plans around the measured baseline.
func Faults(o Options) *FaultStudy {
	base := runAll(Options{Scale: o.Scale, Runner: o.Runner}, []runner.Scenario{faultScenario(o, nil)})[0]
	T := base.Runtime
	st := &FaultStudy{Workload: "jacobi", Nodes: 8, BaselineRuntime: T}

	// The crash model shared by the class matrix and the sweep: each node
	// crashes about once per two fault-free runtimes (a handful of
	// crashes per 8-node run), a restart costs 2.5% of the run, a
	// checkpoint 0.5%. MTBF well above the checkpoint cost keeps the
	// interval sweep's optimum interior — crash-dominated regimes
	// degenerate to "checkpoint constantly".
	crash := faults.Plan{
		Seed:               FaultSeed,
		CrashMTBF:          2 * T,
		RestartSeconds:     T / 40,
		CheckpointSeconds:  T / 200,
		CheckpointInterval: faults.OptimalInterval(T/200, 2*T),
	}
	st.DalyInterval = crash.CheckpointInterval

	classes := []struct {
		name string
		plan faults.Plan
	}{
		{"straggler", faults.Plan{Seed: FaultSeed, StragglerFraction: 0.25, StragglerFactor: 1.5}},
		{"link-derate", faults.Plan{Seed: FaultSeed, DerateFraction: 0.25, LinkDerate: 0.4}},
		{"link-flaps", faults.Plan{Seed: FaultSeed, FlapMTBF: T / 5, FlapSeconds: T / 200}},
		{"msg-loss", faults.Plan{Seed: FaultSeed, MessageLossProb: 0.01}},
		{"crash+ckpt", crash},
	}
	var scenarios []runner.Scenario
	for i := range classes {
		scenarios = append(scenarios, faultScenario(o, &classes[i].plan))
	}
	results := runAll(Options{Scale: o.Scale, Runner: o.Runner}, scenarios)
	for i, c := range classes {
		res := results[i]
		row := FaultClassRow{Class: c.name, Runtime: res.Runtime, Slowdown: res.Runtime / T}
		if res.Faults != nil {
			row.Stats = *res.Faults
		}
		st.Classes = append(st.Classes, row)
	}

	// Checkpoint-interval sweep under the crash plan: never, a geometric
	// ladder of fractions of the run, and the Daly optimum.
	type point struct {
		label    string
		interval float64
	}
	points := []point{{"none", 0}}
	for _, div := range []float64{64, 32, 16, 8, 4, 2} {
		points = append(points, point{fmt.Sprintf("T/%.0f", div), T / div})
	}
	points = append(points, point{"daly", st.DalyInterval})
	scenarios = scenarios[:0]
	plans := make([]faults.Plan, len(points))
	for i, pt := range points {
		plans[i] = crash
		plans[i].CheckpointInterval = pt.interval
		scenarios = append(scenarios, faultScenario(o, &plans[i]))
	}
	results = runAll(Options{Scale: o.Scale, Runner: o.Runner}, scenarios)
	for i, pt := range points {
		res := results[i]
		row := CheckpointRow{
			Label:    pt.label,
			Interval: pt.interval,
			Runtime:  res.Runtime,
			Slowdown: res.Runtime / T,
		}
		if res.Faults != nil {
			row.Checkpoints = res.Faults.Checkpoints
			row.OverheadSeconds = res.Faults.CheckpointOverheadSeconds
			row.ReworkSeconds = res.Faults.ReworkSeconds
		}
		st.Sweep = append(st.Sweep, row)
	}
	return st
}

// BestInterval returns the sweep label with the lowest runtime.
func (st *FaultStudy) BestInterval() string {
	best, bestRT := "", 0.0
	for _, r := range st.Sweep {
		if best == "" || r.Runtime < bestRT {
			best, bestRT = r.Label, r.Runtime
		}
	}
	return best
}

// String renders both tables.
func (st *FaultStudy) String() string {
	t := &table{header: []string{"fault class", "runtime(s)", "slowdown", "detail"}}
	for _, r := range st.Classes {
		detail := ""
		switch r.Class {
		case "straggler":
			detail = fmt.Sprintf("%d straggler node(s)", r.Stats.StragglerNodes)
		case "link-derate":
			detail = fmt.Sprintf("%d derated link(s)", r.Stats.DeratedNodes)
		case "link-flaps":
			detail = fmt.Sprintf("%d delayed booking(s), %.3fs delay", r.Stats.LinkDownDelays, r.Stats.LinkDownDelaySeconds)
		case "msg-loss":
			detail = fmt.Sprintf("%d lost msg(s), %.0f B retransmitted", r.Stats.LostMessages, r.Stats.RetransmittedBytes)
		case "crash+ckpt":
			detail = fmt.Sprintf("%d crash(es), %d checkpoint(s)", r.Stats.Crashes, r.Stats.Checkpoints)
		}
		t.add(r.Class, f2(r.Runtime), f2(r.Slowdown), detail)
	}
	s := fmt.Sprintf("fault classes on %d-node TX1 10GbE %s (baseline %.2fs, seed %d):\n%s",
		st.Nodes, st.Workload, st.BaselineRuntime, FaultSeed, t.String())

	t = &table{header: []string{"ckpt interval", "seconds", "runtime(s)", "slowdown", "ckpts", "overhead(s)", "rework(s)"}}
	for _, r := range st.Sweep {
		t.add(r.Label, f2(r.Interval), f2(r.Runtime), f2(r.Slowdown),
			fmt.Sprintf("%d", r.Checkpoints), f2(r.OverheadSeconds), f2(r.ReworkSeconds))
	}
	return s + fmt.Sprintf("\ncheckpoint-interval sweep (Daly optimum %.2fs, best: %s):\n%s",
		st.DalyInterval, st.BestInterval(), t.String())
}
