package experiments

import (
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/workloads"
)

// Weak scaling is an extension beyond the paper's strong-scaling
// evaluation: its related work (Tibidabo, Sec. II-A) reports hpl
// MFLOPS/W under weak scaling, where the matrix grows with the cluster so
// memory per node stays constant. The interesting shape: efficiency per
// node holds roughly flat as the cluster grows — the regime where ARM
// clusters look their best.

// WeakScalingRow is one cluster size of the weak-scaling hpl sweep.
type WeakScalingRow struct {
	Nodes            int
	MatrixOrder      int // grows ~ sqrt(P)
	Runtime          float64
	ThroughputGFLOPS float64
	PerNodeGFLOPS    float64
	MFLOPSPerWatt    float64
}

// WeakScalingStudy holds the sweep.
type WeakScalingStudy struct {
	Rows []WeakScalingRow
}

// WeakScaling runs hpl with the problem growing alongside the cluster.
func WeakScaling(o Options) *WeakScalingStudy {
	sizes := append([]int{1}, o.sizes()...)
	var scenarios []runner.Scenario
	for _, nodes := range sizes {
		scenarios = append(scenarios, preset("tx1", nodes, network.TenGigE, "hpl",
			workloads.Config{Scale: o.scale(), WeakScaling: true}))
	}
	results := runAll(o, scenarios)
	out := &WeakScalingStudy{}
	for i, nodes := range sizes {
		res := results[i]
		out.Rows = append(out.Rows, WeakScalingRow{
			Nodes:            nodes,
			Runtime:          res.Runtime,
			ThroughputGFLOPS: res.Throughput / 1e9,
			PerNodeGFLOPS:    res.Throughput / 1e9 / float64(nodes),
			MFLOPSPerWatt:    res.MFLOPSPerWatt(),
		})
	}
	return out
}

// Efficiency returns per-node throughput at the largest size relative to
// one node — weak-scaling efficiency.
func (ws *WeakScalingStudy) Efficiency() float64 {
	if len(ws.Rows) < 2 {
		return 1
	}
	first := ws.Rows[0].PerNodeGFLOPS
	last := ws.Rows[len(ws.Rows)-1].PerNodeGFLOPS
	if first == 0 {
		return 0
	}
	return last / first
}

// String renders the study.
func (ws *WeakScalingStudy) String() string {
	t := &table{header: []string{"nodes", "runtime(s)", "GFLOPS", "GFLOPS/node", "MFLOPS/W"}}
	for _, r := range ws.Rows {
		t.add(f1(float64(r.Nodes)), f2(r.Runtime), f1(r.ThroughputGFLOPS), f2(r.PerNodeGFLOPS), f1(r.MFLOPSPerWatt))
	}
	return t.String()
}
