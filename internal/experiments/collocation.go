package experiments

import (
	"clustersoc/internal/network"
	"clustersoc/internal/power"
	"clustersoc/internal/runner"
	"clustersoc/internal/workloads"
)

// WorkRatioPoint is one Fig. 7 sample: hpl energy efficiency when the
// GPU handles `Ratio` of the trailing update and one CPU core the rest,
// normalized to the all-GPU case.
type WorkRatioPoint struct {
	Nodes      int
	Ratio      float64
	Efficiency float64 // MFLOPS/W
	Normalized float64 // vs Ratio = 1 at the same size
}

// WorkRatio holds Fig. 7.
type WorkRatio struct {
	Points []WorkRatioPoint
}

// Fig7 regenerates the CPU/GPU work-ratio sweep for hpl. The ratio-1.0
// scenarios are the plain hpl runs of Figs. 1/9 (workload configs
// canonicalize the all-GPU split), so a shared run-plane reuses them.
func Fig7(o Options) *WorkRatio {
	ratios := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	var scenarios []runner.Scenario
	for _, nodes := range o.sizes() {
		for _, ratio := range ratios {
			scenarios = append(scenarios, preset("tx1", nodes, network.TenGigE, "hpl",
				workloads.Config{Scale: o.scale(), GPUWorkRatio: ratio}))
		}
	}
	res := runAll(o, scenarios)
	out := &WorkRatio{}
	i := 0
	for _, nodes := range o.sizes() {
		pts := make([]WorkRatioPoint, len(ratios))
		var baseline float64
		for j, ratio := range ratios {
			eff := res[i].MFLOPSPerWatt()
			i++
			if ratio == 1.0 {
				baseline = eff
			}
			pts[j] = WorkRatioPoint{Nodes: nodes, Ratio: ratio, Efficiency: eff}
		}
		for j := range pts {
			if baseline > 0 {
				pts[j].Normalized = pts[j].Efficiency / baseline
			}
		}
		out.Points = append(out.Points, pts...)
	}
	return out
}

// At returns the point for (nodes, ratio), or nil.
func (wr *WorkRatio) At(nodes int, ratio float64) *WorkRatioPoint {
	for i := range wr.Points {
		p := &wr.Points[i]
		if p.Nodes == nodes && p.Ratio > ratio-1e-9 && p.Ratio < ratio+1e-9 {
			return p
		}
	}
	return nil
}

// String renders Fig. 7.
func (wr *WorkRatio) String() string {
	t := &table{header: []string{"nodes", "GPU work ratio", "MFLOPS/W", "normalized"}}
	for _, p := range wr.Points {
		t.add(f1(float64(p.Nodes)), f2(p.Ratio), f1(p.Efficiency), f2(p.Normalized))
	}
	return t.String()
}

// CollocationRow is one Table IV row: an hpl configuration under one
// network at every cluster size.
type CollocationRow struct {
	Config  string // "CPU", "GPU", "CPU+GPU"
	Network string
	Nodes   int

	ThroughputGFLOPS float64
	MFLOPSPerWatt    float64
}

// Collocation holds Table IV.
type Collocation struct {
	Rows []CollocationRow
}

// Table4 regenerates Table IV: hpl throughput and energy efficiency for
// the CPU-only version (4 ranks/node), the GPU version, and both running
// collocated (GPU + 3 CPU ranks/node), under both networks.
func Table4(o Options) *Collocation {
	var scenarios []runner.Scenario
	for _, prof := range []network.Profile{network.GigE, network.TenGigE} {
		for _, nodes := range o.sizes() {
			// CPU-only: the HPCC hpl on all 4 cores.
			cpu := preset("tx1", nodes, prof, "hpl-cpu", o.config())

			// GPU version — the Fig. 1 hpl scenario for this NIC and size.
			gpu := preset("tx1", nodes, prof, "hpl", o.config())

			// Collocated: GPU hpl (1 rank/node, one core for transfers)
			// plus the CPU hpl on the remaining 3 cores, simultaneously.
			// Each run solves its own system, so the combined throughput is
			// the sum of the two jobs' own rates under contention — the way
			// the paper tallies its simultaneous runs.
			both := gpu
			both.Colocated = []runner.Job{{Workload: "hpl-cpu", RanksPerNode: 3, Config: o.config()}}
			scenarios = append(scenarios, cpu, gpu, both)
		}
	}
	res := runAll(o, scenarios)
	out := &Collocation{}
	i := 0
	for _, prof := range []network.Profile{network.GigE, network.TenGigE} {
		for _, nodes := range o.sizes() {
			resC, resG, resB := res[i], res[i+1], res[i+2]
			i += 3
			out.Rows = append(out.Rows, CollocationRow{
				Config: "CPU", Network: prof.Name, Nodes: nodes,
				ThroughputGFLOPS: resC.Throughput / 1e9,
				MFLOPSPerWatt:    resC.MFLOPSPerWatt(),
			})
			out.Rows = append(out.Rows, CollocationRow{
				Config: "GPU", Network: prof.Name, Nodes: nodes,
				ThroughputGFLOPS: resG.Throughput / 1e9,
				MFLOPSPerWatt:    resG.MFLOPSPerWatt(),
			})
			combined := resB.JobThroughputs[0] + resB.JobThroughputs[1]
			out.Rows = append(out.Rows, CollocationRow{
				Config: "CPU+GPU", Network: prof.Name, Nodes: nodes,
				ThroughputGFLOPS: combined / 1e9,
				MFLOPSPerWatt:    power.MFLOPSPerWatt(combined, resB.AvgPowerWatts),
			})
		}
	}
	return out
}

// Row returns the entry for (config, network, nodes), or nil.
func (c *Collocation) Row(config, net string, nodes int) *CollocationRow {
	for i := range c.Rows {
		r := &c.Rows[i]
		if r.Config == config && r.Network == net && r.Nodes == nodes {
			return r
		}
	}
	return nil
}

// String renders Table IV.
func (c *Collocation) String() string {
	t := &table{header: []string{"configuration", "nodes", "GFLOPS", "MFLOPS/W"}}
	for _, r := range c.Rows {
		t.add(r.Config+"+"+r.Network, f1(float64(r.Nodes)), f1(r.ThroughputGFLOPS), f1(r.MFLOPSPerWatt))
	}
	return t.String()
}
