package experiments

import (
	"clustersoc/internal/network"
	"clustersoc/internal/perf"
	"clustersoc/internal/runner"
	"clustersoc/internal/stats"
	"clustersoc/internal/workloads"
)

// CaviumRow is one Table VI row: the Cavium server's runtime, power, and
// energy on an NPB benchmark, normalized to the 8-node TX1 cluster.
type CaviumRow struct {
	Workload string

	TX1Runtime    float64
	CaviumRuntime float64

	NormRuntime float64 // Cavium / TX1 (> 1: TX1 wins)
	NormPower   float64
	NormEnergy  float64

	// Relative counter vector (Cavium / TX1) in perf.MetricNames order —
	// the observation matrix row for the PLS study.
	RelCounters []float64
}

// CaviumCompare holds Table VI and the Fig. 8 inputs/results.
type CaviumCompare struct {
	Rows []CaviumRow

	// PLS results (Fig. 8).
	TopVariables []string
	Components95 int
	PLS          *stats.PLSResult
}

// Table6 regenerates the many-core ARM server comparison of Sec. IV-A:
// NPB class C with 32 MPI processes on both systems. The TX1 cluster runs
// its NPB baseline configuration (8 nodes, 4 ranks/node, the on-board
// 1 GbE — the network the CPU-only suite shipped with).
func Table6(o Options) *CaviumCompare {
	npb := workloads.NPBWorkloads()
	var scenarios []runner.Scenario
	for _, w := range npb {
		scenarios = append(scenarios,
			preset("tx1", 8, network.GigE, w.Name(), o.config()),
			preset("cavium", 0, network.GigE, w.Name(), o.config()))
	}
	res := runAll(o, scenarios)
	out := &CaviumCompare{}
	for i, w := range npb {
		tx, cav := res[2*i], res[2*i+1]
		rel := relativeCounters(cav.PMU, tx.PMU)
		out.Rows = append(out.Rows, CaviumRow{
			Workload:      w.Name(),
			TX1Runtime:    tx.Runtime,
			CaviumRuntime: cav.Runtime,
			NormRuntime:   cav.Runtime / tx.Runtime,
			NormPower:     cav.AvgPowerWatts / tx.AvgPowerWatts,
			NormEnergy:    cav.EnergyJoules / tx.EnergyJoules,
			RelCounters:   rel,
		})
	}
	out.runPLS()
	return out
}

// relativeCounters builds the per-benchmark observation row: each metric
// on the Cavium relative to the TX1 cluster.
func relativeCounters(cav, tx perf.PMU) []float64 {
	cv, tv := cav.Vector(), tx.Vector()
	out := make([]float64, len(cv))
	for i := range cv {
		if tv[i] != 0 {
			out[i] = cv[i] / tv[i]
		}
	}
	return out
}

// runPLS reproduces the Sec. IV-A methodology: PLS of the relative
// counter matrix against relative performance, keep the components that
// explain 95% of the variance, pick the three largest-coefficient
// variables. The paper finds BR_MIS_PRED, INST_SPEC, and the L2 miss
// ratio.
func (cc *CaviumCompare) runPLS() {
	// CPU_CYCLES and IPC are excluded from the observation matrix: the
	// relative cycle count *is* the response variable (runtime x a fixed
	// frequency ratio), so keeping them would only let PLS rediscover the
	// tautology. BR_MISS_RATIO is excluded because in relative space it is
	// exactly BR_MIS_PRED (the branch counts cancel) — a perfectly
	// collinear duplicate.
	var cols []int
	for i, name := range perf.MetricNames {
		if name != "CPU_CYCLES" && name != "IPC" && name != "BR_MISS_RATIO" {
			cols = append(cols, i)
		}
	}
	x := make([][]float64, len(cc.Rows))
	y := make([]float64, len(cc.Rows))
	for i, r := range cc.Rows {
		row := make([]float64, len(cols))
		for j, c := range cols {
			row[j] = r.RelCounters[c]
		}
		x[i] = row
		y[i] = r.NormRuntime
	}
	res, err := stats.PLS1(x, y, 3)
	if err != nil {
		return
	}
	cc.PLS = res
	cc.Components95 = res.ComponentsFor(0.95)
	for _, idx := range res.TopVariables(3) {
		cc.TopVariables = append(cc.TopVariables, perf.MetricNames[cols[idx]])
	}
}

// Row returns the entry for a workload, or nil.
func (cc *CaviumCompare) Row(name string) *CaviumRow {
	for i := range cc.Rows {
		if cc.Rows[i].Workload == name {
			return &cc.Rows[i]
		}
	}
	return nil
}

// RelMetric returns a workload's relative counter value by metric name.
func (r *CaviumRow) RelMetric(name string) float64 {
	for i, n := range perf.MetricNames {
		if n == name {
			return r.RelCounters[i]
		}
	}
	return 0
}

// String renders Table VI plus the Fig. 8 summary.
func (cc *CaviumCompare) String() string {
	t := &table{header: []string{"benchmark", "norm runtime", "norm power", "norm energy", "BR_MIS_PRED", "INST_SPEC", "LD_MISS_RATIO"}}
	for i := range cc.Rows {
		r := &cc.Rows[i]
		t.add(r.Workload, f2(r.NormRuntime), f2(r.NormPower), f2(r.NormEnergy),
			f2(r.RelMetric("BR_MIS_PRED")), f2(r.RelMetric("INST_SPEC")), f2(r.RelMetric("LD_MISS_RATIO")))
	}
	s := t.String()
	if len(cc.TopVariables) > 0 {
		s += "PLS top variables: "
		for i, v := range cc.TopVariables {
			if i > 0 {
				s += ", "
			}
			s += v
		}
		s += "\n"
	}
	return s
}
