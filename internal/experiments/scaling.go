package experiments

import (
	"clustersoc/internal/dimemas"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/stats"
	"clustersoc/internal/workloads"
)

// ScalingCurve is one workload's strong-scaling study (Fig. 5 / Fig. 6).
type ScalingCurve struct {
	Workload string
	Nodes    []int

	// Measured runtimes per size and network.
	Runtime1G  []float64
	Runtime10G []float64
	// Replayed runtimes from the 10 GbE traces.
	IdealNet []float64
	IdealLB  []float64

	// Efficiency decomposition per size (from the 10 GbE traces).
	Eff []dimemas.Efficiency

	// Fitted runtime models T(P) = a + b/P + c ln P.
	Fit1G, Fit10G stats.ScalingFit
}

// Speedup10G returns measured speedup at the i-th size vs one node.
func (s *ScalingCurve) Speedup10G(i int) float64 { return s.Runtime10G[0] / s.Runtime10G[i] }

// IdealNetGain returns the ideal-network replay improvement at the i-th
// size (the paper reports the average and the hpl/tealeaf3d extremes).
func (s *ScalingCurve) IdealNetGain(i int) float64 { return s.Runtime10G[i] / s.IdealNet[i] }

// IdealLBGain returns the ideal-load-balance replay improvement.
func (s *ScalingCurve) IdealLBGain(i int) float64 { return s.Runtime10G[i] / s.IdealLB[i] }

// Scaling holds Fig. 5 (GPU workloads) or Fig. 6 (NPB).
type Scaling struct {
	Curves []*ScalingCurve
	// ExtrapolateTo is the largest node count the fitted curves are
	// extrapolated to (the paper extrapolates well past the 8 measured).
	ExtrapolateTo int
}

// scalingFor runs the study for a set of workloads. Per workload and
// size it needs two runs: the 1 GbE measurement (the Fig. 1 scenarios at
// the shared sweep sizes) and a traced 10 GbE Replay run, whose result
// carries the DIMEMAS-style replays of its trace.
func scalingFor(ws []workloads.Workload, o Options) *Scaling {
	sizes := append([]int{1}, o.sizes()...)
	var scenarios []runner.Scenario
	for _, w := range ws {
		for _, n := range sizes {
			traced := tx1Scenario(w, n, network.TenGigE, o.scale())
			traced.Cluster.Traced = true
			traced.Replay = true
			scenarios = append(scenarios, tx1Scenario(w, n, network.GigE, o.scale()), traced)
		}
	}
	res := runAll(o, scenarios)
	out := &Scaling{ExtrapolateTo: 64}
	i := 0
	for _, w := range ws {
		c := &ScalingCurve{Workload: w.Name(), Nodes: sizes}
		for range sizes {
			r1, r10 := res[2*i], res[2*i+1]
			i++
			c.Runtime1G = append(c.Runtime1G, r1.Runtime)
			c.Runtime10G = append(c.Runtime10G, r10.Runtime)
			// Decompose's TIdeal is the ideal-network replay.
			c.IdealNet = append(c.IdealNet, r10.Replay.TIdeal)
			c.IdealLB = append(c.IdealLB, r10.Replay.IdealLB)
			c.Eff = append(c.Eff, r10.Replay.Efficiency)
		}
		c.Fit1G, _ = stats.FitScaling(sizes, c.Runtime1G)
		c.Fit10G, _ = stats.FitScaling(sizes, c.Runtime10G)
		out.Curves = append(out.Curves, c)
	}
	return out
}

// Fig5 regenerates the GPGPU scalability study (hpl, jacobi, cloverleaf,
// tealeaf2d, tealeaf3d; alexnet/googlenet are excluded because they do
// not communicate to solve a problem — Sec. III-B.4).
func Fig5(o Options) *Scaling {
	var ws []workloads.Workload
	for _, name := range []string{"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d"} {
		w, _ := workloads.ByName(name)
		ws = append(ws, w)
	}
	return scalingFor(ws, o)
}

// Fig6 regenerates the NPB scalability study.
func Fig6(o Options) *Scaling {
	return scalingFor(workloads.NPBWorkloads(), o)
}

// Curve returns a workload's curve, or nil.
func (s *Scaling) Curve(name string) *ScalingCurve {
	for _, c := range s.Curves {
		if c.Workload == name {
			return c
		}
	}
	return nil
}

// AverageR2 returns the mean r-squared of the 10 GbE fits (the paper
// reports 0.98-ish averages for its fits).
func (s *Scaling) AverageR2() float64 {
	sum := 0.0
	for _, c := range s.Curves {
		sum += c.Fit10G.R2
	}
	return sum / float64(len(s.Curves))
}

// AverageIdealNetGain returns the mean ideal-network improvement at the
// largest measured size.
func (s *Scaling) AverageIdealNetGain() float64 {
	sum := 0.0
	for _, c := range s.Curves {
		sum += c.IdealNetGain(len(c.Nodes) - 1)
	}
	return sum / float64(len(s.Curves))
}

// AverageIdealLBGain returns the mean ideal-load-balance improvement at
// the largest measured size.
func (s *Scaling) AverageIdealLBGain() float64 {
	sum := 0.0
	for _, c := range s.Curves {
		sum += c.IdealLBGain(len(c.Nodes) - 1)
	}
	return sum / float64(len(s.Curves))
}

// String renders the study.
func (s *Scaling) String() string {
	t := &table{header: []string{"workload", "speedup@8(10G)", "extrap@64", "idealNet gain", "idealLB gain", "LB", "Ser", "Trf", "r2"}}
	for _, c := range s.Curves {
		last := len(c.Nodes) - 1
		e := c.Eff[last]
		t.add(c.Workload,
			f2(c.Speedup10G(last)),
			f2(c.Fit10G.Speedup(s.ExtrapolateTo)),
			f2(c.IdealNetGain(last)),
			f2(c.IdealLBGain(last)),
			f2(e.LB), f2(e.Ser), f2(e.Trf), f2(c.Fit10G.R2))
	}
	return t.String()
}
