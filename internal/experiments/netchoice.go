package experiments

import (
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/units"
	"clustersoc/internal/workloads"
)

// NetRow is one workload at one cluster size under both networks — the
// data behind Figs. 1 and 2.
type NetRow struct {
	Workload string
	GPU      bool
	Nodes    int

	Runtime1G  float64
	Runtime10G float64
	Energy1G   float64
	Energy10G  float64
}

// Speedup returns the Fig. 1 value: runtime(1G) / runtime(10G).
func (r NetRow) Speedup() float64 { return r.Runtime1G / r.Runtime10G }

// EnergyRatio returns the Fig. 2 value: energy(10G) / energy(1G); below 1
// means the 10 GbE card pays for itself.
func (r NetRow) EnergyRatio() float64 { return r.Energy10G / r.Energy1G }

// NetworkChoice runs every workload at every cluster size under 1 GbE and
// 10 GbE (Sec. III-B.1).
type NetworkChoice struct {
	Rows []NetRow
}

// Fig1 regenerates Figures 1 and 2 (they share the runs). The scenario
// set — every workload at every size under both NICs — is declared up
// front and submitted to the run-plane as one batch.
func Fig1(o Options) *NetworkChoice {
	type key struct {
		w workloads.Workload
		n int
	}
	var keys []key
	var scenarios []runner.Scenario
	for _, w := range allWorkloads() {
		for _, n := range o.sizes() {
			keys = append(keys, key{w, n})
			scenarios = append(scenarios,
				preset("tx1", n, network.GigE, w.Name(), o.config()),
				preset("tx1", n, network.TenGigE, w.Name(), o.config()))
		}
	}
	res := runAll(o, scenarios)
	out := &NetworkChoice{}
	for i, k := range keys {
		r1, r10 := res[2*i], res[2*i+1]
		out.Rows = append(out.Rows, NetRow{
			Workload:   k.w.Name(),
			GPU:        k.w.GPUAccelerated(),
			Nodes:      k.n,
			Runtime1G:  r1.Runtime,
			Runtime10G: r10.Runtime,
			Energy1G:   r1.EnergyJoules,
			Energy10G:  r10.EnergyJoules,
		})
	}
	return out
}

// AverageSpeedup returns the mean Fig. 1 speedup at one cluster size.
func (nc *NetworkChoice) AverageSpeedup(nodes int) float64 {
	sum, cnt := 0.0, 0
	for _, r := range nc.Rows {
		if r.Nodes == nodes {
			sum += r.Speedup()
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// AverageEnergyImprovement returns the mean (1 - energy ratio) at one
// cluster size: the paper reports ~X% energy-efficiency improvement at 8
// nodes.
func (nc *NetworkChoice) AverageEnergyImprovement(nodes int) float64 {
	sum, cnt := 0.0, 0
	for _, r := range nc.Rows {
		if r.Nodes == nodes {
			sum += 1 - r.EnergyRatio()
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// Row returns the entry for a workload at a size, or nil.
func (nc *NetworkChoice) Row(name string, nodes int) *NetRow {
	for i := range nc.Rows {
		if nc.Rows[i].Workload == name && nc.Rows[i].Nodes == nodes {
			return &nc.Rows[i]
		}
	}
	return nil
}

// String renders the Fig. 1 + Fig. 2 data as a table.
func (nc *NetworkChoice) String() string {
	t := &table{header: []string{"workload", "nodes", "speedup(10G/1G)", "energy(10G/1G)"}}
	for _, r := range nc.Rows {
		t.add(r.Workload, f1(float64(r.Nodes)), f2(r.Speedup()), f2(r.EnergyRatio()))
	}
	return t.String()
}

// TrafficPoint is one point of the Fig. 3 scatter: average per-node DRAM
// and network traffic for a GPGPU workload under one NIC, on 8 nodes.
type TrafficPoint struct {
	Workload string
	Network  string
	// Rates are per node, bytes/second, as the paper plots them.
	DRAMRate float64
	NetRate  float64
}

// Traffic holds Fig. 3.
type Traffic struct {
	Points []TrafficPoint
}

// Fig3 regenerates the DRAM-vs-network traffic scatter (8 nodes, both
// NICs, GPGPU workloads). Every scenario duplicates a Fig. 1 run: with a
// shared run-plane the whole figure comes from the cache.
func Fig3(o Options) *Traffic {
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
	res := runAll(o, scenarios)
	out := &Traffic{}
	for i, k := range keys {
		out.Points = append(out.Points, TrafficPoint{
			Workload: k.w.Name(),
			Network:  k.prof.Name,
			DRAMRate: res[i].DRAMTrafficRate() / nodes,
			NetRate:  res[i].NetTrafficRate() / nodes,
		})
	}
	return out
}

// Point returns the entry for (workload, network name), or nil.
func (tr *Traffic) Point(name, net string) *TrafficPoint {
	for i := range tr.Points {
		if tr.Points[i].Workload == name && tr.Points[i].Network == net {
			return &tr.Points[i]
		}
	}
	return nil
}

// String renders Fig. 3's points.
func (tr *Traffic) String() string {
	t := &table{header: []string{"workload", "network", "DRAM/node", "net/node"}}
	for _, p := range tr.Points {
		t.add(p.Workload, p.Network, units.Rate(p.DRAMRate), units.Rate(p.NetRate))
	}
	return t.String()
}
