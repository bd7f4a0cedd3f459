// Package core is the library's public face: it composes the hardware
// models, workloads, and analyses into the paper's contribution — a
// GPGPU-accelerated, 10 GbE-connected cluster of mobile-class ARM SoCs,
// with the extended Roofline model and the trace-replay scalability
// methodology to reason about it.
//
// Typical use:
//
//	spec := core.TX1(8, core.TenGigE)
//	res, _ := core.Run(spec, "hpl", 0.25)
//	fmt.Println(core.RooflineOf(spec, res, false))
package core

import (
	"fmt"

	"clustersoc/internal/cluster"
	"clustersoc/internal/cuda"
	"clustersoc/internal/dimemas"
	"clustersoc/internal/network"
	"clustersoc/internal/roofline"
	"clustersoc/internal/soc"
	"clustersoc/internal/stats"
	"clustersoc/internal/workloads"
)

// NetworkChoice selects the cluster interconnect.
type NetworkChoice int

const (
	// GigE is the on-board 1 GbE of previous mobile-SoC clusters.
	GigE NetworkChoice = iota
	// TenGigE is the paper's proposed PCIe 10 GbE upgrade.
	TenGigE
)

// ParseNetwork maps a front end's -net value to its NetworkChoice:
// "1g" or "10g". Any other value is an error, so a typo cannot silently
// run the other side of the paper's 1 GbE vs 10 GbE comparison.
func ParseNetwork(s string) (NetworkChoice, error) {
	switch s {
	case "1g":
		return GigE, nil
	case "10g":
		return TenGigE, nil
	}
	return 0, fmt.Errorf("unknown network %q (want 1g or 10g)", s)
}

// Profile returns the interconnect's network profile.
func (n NetworkChoice) Profile() network.Profile {
	if n == TenGigE {
		return network.TenGigE
	}
	return network.GigE
}

// TX1 returns the paper's proposed cluster: n Jetson TX1 nodes on the
// chosen network, with the NFS file server attached.
func TX1(nodes int, net NetworkChoice) cluster.Config {
	cfg := cluster.TX1Cluster(nodes, net.Profile())
	cfg.FileServer = true
	return cfg
}

// TX2 returns the next-generation what-if cluster from the companion
// thesis: Jetson TX2 nodes on the chosen network.
func TX2(nodes int, net NetworkChoice) cluster.Config {
	cfg := cluster.TX1Cluster(nodes, net.Profile())
	cfg.NodeType = soc.JetsonTX2()
	cfg.Name = fmt.Sprintf("%d-node TX2 %s", nodes, net.Profile().Name)
	cfg.FileServer = true
	return cfg
}

// Cavium returns the many-core ARM comparison server with the paper's 32
// MPI processes.
func Cavium() cluster.Config { return cluster.CaviumServer(32) }

// GTX980 returns the discrete-GPU comparison cluster of n Xeon-hosted
// cards.
func GTX980(nodes int) cluster.Config {
	cfg := cluster.GTX980Cluster(nodes)
	cfg.FileServer = true
	return cfg
}

// Run executes a workload by name on the system at the given problem
// scale (1 = paper-sized) and returns its measurements.
func Run(cfg cluster.Config, workload string, scale float64) (cluster.Result, error) {
	return RunWithConfig(cfg, workload, workloads.Config{Scale: scale})
}

// RunWithMemModel is Run with an explicit CUDA memory-management model
// (Sec. III-B.5).
func RunWithMemModel(cfg cluster.Config, workload string, scale float64, model cuda.MemModel) (cluster.Result, error) {
	cfg.MemModel = model
	return Run(cfg, workload, scale)
}

// RunWithConfig is Run with a full workload configuration (work-ratio
// splits, FP16 inference). It is the one-shot convenience over a
// single-use sequential Session.
func RunWithConfig(cfg cluster.Config, workload string, wcfg workloads.Config) (cluster.Result, error) {
	return NewSession(1).RunWithConfig(cfg, workload, wcfg)
}

// RooflineModel builds the extended roofline (eq. 1-3) for one node of
// the system under its network; single selects the FP32 roof.
func RooflineModel(cfg cluster.Config, single bool) roofline.Model {
	peak := 0.0
	mem := cfg.NodeType.DRAMBandwidth
	if g := cfg.NodeType.GPU; g != nil {
		if single {
			peak = g.PeakFP32()
		} else {
			peak = g.PeakFP64()
		}
		mem = g.MemBandwidth
	} else {
		peak = cfg.NodeType.CPU.PeakFlops()
		mem = cfg.NodeType.CPU.MemBandwidth
	}
	return roofline.Model{
		Name:         cfg.Name,
		PeakFlops:    peak,
		MemBandwidth: mem,
		NetBandwidth: cfg.Network.Throughput,
	}
}

// RooflineOf places a run on the system's extended roofline: operational
// and network intensities, attainable peak, and the limiting factor.
// single selects the FP32 roof (the AI workloads); the scientific codes
// run double precision.
func RooflineOf(cfg cluster.Config, res cluster.Result, single bool) roofline.Analysis {
	m := RooflineModel(cfg, single)
	n := float64(cfg.Nodes)
	return m.Analyze(roofline.Point{
		Name:       res.System,
		FLOPs:      res.FLOPs / n,
		DRAMBytes:  res.DRAMBytes / n,
		NetBytes:   res.NetBytes / n,
		Throughput: res.Throughput / n,
	})
}

// ScalabilityResult is one workload's strong-scaling analysis (the Fig.
// 5/6 methodology): measured speedups, the fitted extrapolation, and the
// eta = LB * Ser * Trf decomposition at the largest size.
type ScalabilityResult struct {
	Workload   string
	Nodes      []int
	Runtimes   []float64
	Speedups   []float64
	Fit        stats.ScalingFit
	Efficiency dimemas.Efficiency
	// IdealNetworkGain and IdealLoadBalanceGain are the replay what-ifs at
	// the largest measured size.
	IdealNetworkGain     float64
	IdealLoadBalanceGain float64
}

// Scalability traces a workload across cluster sizes on the system type
// of cfg (the node/network choice; Nodes is overridden per point) and
// runs the replay decomposition. It is the sequential convenience over
// Session.Scalability.
func Scalability(cfg cluster.Config, workload string, sizes []int, scale float64) (*ScalabilityResult, error) {
	return NewSession(1).Scalability(cfg, workload, sizes, scale)
}

// Workloads lists the registered workload names, GPU set first.
func Workloads() []string {
	var names []string
	for _, w := range workloads.GPUWorkloads() {
		names = append(names, w.Name())
	}
	for _, w := range workloads.NPBWorkloads() {
		names = append(names, w.Name())
	}
	return names
}
