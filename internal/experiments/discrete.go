package experiments

import (
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/workloads"
)

// DiscreteRow is one Fig. 9 point: a GPGPU workload on a TX1 cluster of
// some size, normalized to the 2x GTX 980 discrete cluster.
type DiscreteRow struct {
	Workload string
	Nodes    int

	NormRuntime float64 // TX1 / GTX (x-axis; < 1: TX1 faster)
	NormEnergy  float64 // TX1 / GTX (y-axis; < 1: TX1 cheaper)
}

// Discrete holds Fig. 9.
type Discrete struct {
	Rows []DiscreteRow
	// GTXRuntime and GTXEnergy index the 2-card baseline by workload.
	GTXRuntime map[string]float64
	GTXEnergy  map[string]float64
}

// Fig9 regenerates the discrete-GPGPU comparison: every GPGPU workload on
// TX1 clusters of 2-8 nodes, normalized to two GTX 980 hosts. Both
// clusters sit on 10 GbE and roughly the same wall power (Sec. IV-B).
func Fig9(o Options) *Discrete {
	gpu := workloads.GPUWorkloads()
	var scenarios []runner.Scenario
	for _, w := range gpu {
		scenarios = append(scenarios, preset("gtx980", 0, network.TenGigE, w.Name(), o.config()))
		for _, nodes := range o.sizes() {
			scenarios = append(scenarios, preset("tx1", nodes, network.TenGigE, w.Name(), o.config()))
		}
	}
	res := runAll(o, scenarios)
	out := &Discrete{GTXRuntime: map[string]float64{}, GTXEnergy: map[string]float64{}}
	i := 0
	for _, w := range gpu {
		g := res[i]
		i++
		out.GTXRuntime[w.Name()] = g.Runtime
		out.GTXEnergy[w.Name()] = g.EnergyJoules
		for _, nodes := range o.sizes() {
			r := res[i]
			i++
			out.Rows = append(out.Rows, DiscreteRow{
				Workload:    w.Name(),
				Nodes:       nodes,
				NormRuntime: r.Runtime / g.Runtime,
				NormEnergy:  r.EnergyJoules / g.EnergyJoules,
			})
		}
	}
	return out
}

// Row returns the entry for (workload, nodes), or nil.
func (d *Discrete) Row(name string, nodes int) *DiscreteRow {
	for i := range d.Rows {
		if d.Rows[i].Workload == name && d.Rows[i].Nodes == nodes {
			return &d.Rows[i]
		}
	}
	return nil
}

// String renders Fig. 9's points.
func (d *Discrete) String() string {
	t := &table{header: []string{"workload", "nodes", "runtime vs 2xGTX", "energy vs 2xGTX"}}
	for _, r := range d.Rows {
		t.add(r.Workload, f1(float64(r.Nodes)), f2(r.NormRuntime), f2(r.NormEnergy))
	}
	return t.String()
}

// AIBalanceRow is one Fig. 10 point: an AI workload on a scale-out TX1
// cluster vs the scale-up discrete system.
type AIBalanceRow struct {
	Workload string
	Nodes    int

	Speedup          float64 // GTX runtime / TX1 runtime (> 1: TX1 faster)
	NormCPUCyclesSec float64 // unhalted CPU cycles/second vs the GTX system
}

// AIBalance holds Fig. 10.
type AIBalance struct {
	Rows []AIBalanceRow
}

// Fig10 regenerates the CPU:GPU balance study: alexnet and googlenet
// speedup and unhalted-CPU-cycles rate for scale-out cluster sizes,
// normalized to the 2x GTX 980 scale-up system.
func Fig10(o Options) *AIBalance {
	names := []string{"alexnet", "googlenet"}
	var scenarios []runner.Scenario
	for _, name := range names {
		w, _ := workloads.ByName(name)
		scenarios = append(scenarios, preset("gtx980", 0, network.TenGigE, w.Name(), o.config()))
		for _, nodes := range o.sizes() {
			scenarios = append(scenarios, preset("tx1", nodes, network.TenGigE, w.Name(), o.config()))
		}
	}
	res := runAll(o, scenarios)
	out := &AIBalance{}
	i := 0
	for _, name := range names {
		g := res[i]
		i++
		for _, nodes := range o.sizes() {
			r := res[i]
			i++
			out.Rows = append(out.Rows, AIBalanceRow{
				Workload:         name,
				Nodes:            nodes,
				Speedup:          g.Runtime / r.Runtime,
				NormCPUCyclesSec: r.UnhaltedCPUCyclesPerSec / g.UnhaltedCPUCyclesPerSec,
			})
		}
	}
	return out
}

// Row returns the entry for (workload, nodes), or nil.
func (a *AIBalance) Row(name string, nodes int) *AIBalanceRow {
	for i := range a.Rows {
		if a.Rows[i].Workload == name && a.Rows[i].Nodes == nodes {
			return &a.Rows[i]
		}
	}
	return nil
}

// String renders Fig. 10.
func (a *AIBalance) String() string {
	t := &table{header: []string{"workload", "nodes", "speedup vs 2xGTX", "CPU cycles/s vs 2xGTX"}}
	for _, r := range a.Rows {
		t.add(r.Workload, f1(float64(r.Nodes)), f2(r.Speedup), f2(r.NormCPUCyclesSec))
	}
	return t.String()
}
