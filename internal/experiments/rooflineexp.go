package experiments

import (
	"math"

	"clustersoc/internal/core"
	"clustersoc/internal/network"
	"clustersoc/internal/roofline"
	"clustersoc/internal/runner"
	"clustersoc/internal/workloads"
)

// RooflineRow is one Table II row under one network.
type RooflineRow struct {
	Workload string
	Network  string
	roofline.Analysis
}

// Roofline holds Table II plus the Fig. 4 roof series.
type Roofline struct {
	Rows []RooflineRow
	// Series1G and Series10G sample the memory/compute roof (identical
	// curve; the network changes only the per-workload ceilings).
	Series1G, Series10G []roofline.SeriesPoint
	// Ceilings are the per-workload network roofs for Fig. 4's dashed
	// lines, keyed by workload then network name.
	Ceilings map[string]map[string]float64
}

// Table2 regenerates Table II and the Fig. 4 data: the extended-roofline
// placement of every GPGPU workload at 8 nodes under both NICs. The runs
// are the same scenarios Fig. 1 and Fig. 3 submit, so a shared run-plane
// serves the whole table from cache.
func Table2(o Options) *Roofline {
	const nodes = 8
	type key struct {
		w    workloads.Workload
		prof network.Profile
	}
	var keys []key
	var scenarios []runner.Scenario
	for _, w := range workloads.GPUWorkloads() {
		for _, prof := range []network.Profile{network.GigE, network.TenGigE} {
			keys = append(keys, key{w, prof})
			scenarios = append(scenarios, preset("tx1", nodes, prof, w.Name(), o.config()))
		}
	}
	results := runAll(o, scenarios)
	out := &Roofline{Ceilings: map[string]map[string]float64{}}
	for i, k := range keys {
		w, prof, res := k.w, k.prof, results[i]
		// The AI codes see the FP32 roof; the scientific codes the FP64.
		single := w.Name() == "alexnet" || w.Name() == "googlenet"
		model := core.RooflineModel(scenarios[i].Cluster, single)
		pt := roofline.Point{
			Name:       w.Name(),
			FLOPs:      res.FLOPs / nodes,
			DRAMBytes:  res.DRAMBytes / nodes,
			NetBytes:   res.NetBytes / nodes,
			Throughput: res.Throughput / nodes,
		}
		out.Rows = append(out.Rows, RooflineRow{
			Workload: w.Name(),
			Network:  prof.Name,
			Analysis: model.Analyze(pt),
		})
		if out.Ceilings[w.Name()] == nil {
			out.Ceilings[w.Name()] = map[string]float64{}
		}
		out.Ceilings[w.Name()][prof.Name] = model.NetworkCeiling(pt.NI())
	}
	out.Series1G = core.RooflineModel(core.TX1(nodes, core.GigE), false).MemorySeries(0.01, 100, 64)
	out.Series10G = core.RooflineModel(core.TX1(nodes, core.TenGigE), false).MemorySeries(0.01, 100, 64)
	return out
}

// Row returns the entry for (workload, network), or nil.
func (rf *Roofline) Row(name, net string) *RooflineRow {
	for i := range rf.Rows {
		if rf.Rows[i].Workload == name && rf.Rows[i].Network == net {
			return &rf.Rows[i]
		}
	}
	return nil
}

// String renders Table II.
func (rf *Roofline) String() string {
	t := &table{header: []string{"benchmark", "net", "OI(F/B)", "NI(F/B)", "GFLOPS/node", "%peak", "limit"}}
	for _, r := range rf.Rows {
		ni := "inf"
		if !math.IsInf(r.NI, 1) {
			ni = f1(r.NI)
		}
		t.add(r.Workload, r.Network, f2(r.OI), ni, f2(r.Throughput/1e9), f1(r.PercentOfPeak), string(r.Limit))
	}
	return t.String()
}
