// Package clustersoc's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (one benchmark per artifact; see
// DESIGN.md's experiment index) plus ablation benches on the design
// choices the models encode. Each benchmark iteration reproduces the full
// artifact, so b.N = 1 runs are the normal mode:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig1 -benchtime=1x
package clustersoc

import (
	"testing"

	"clustersoc/internal/core"
	"clustersoc/internal/cuda"
	"clustersoc/internal/experiments"
	"clustersoc/internal/kernels"
	"clustersoc/internal/nn"
	"clustersoc/internal/workloads"
)

// benchOptions keeps the artifact regenerations quick; shapes are
// scale-invariant (see internal/workloads).
func benchOptions() experiments.Options {
	return experiments.Options{Scale: 0.04, Sizes: []int{2, 4, 8}}
}

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkFig1NetworkSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nc := experiments.Fig1(benchOptions())
		b.ReportMetric(nc.AverageSpeedup(8), "avg-speedup@8")
	}
}

func BenchmarkFig2NetworkEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nc := experiments.Fig1(benchOptions())
		b.ReportMetric(100*nc.AverageEnergyImprovement(8), "avg-energy-gain-%@8")
	}
}

func BenchmarkFig3TrafficScatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := experiments.Fig3(benchOptions())
		p := tr.Point("hpl", "10GbE")
		b.ReportMetric(p.DRAMRate/1e9, "hpl-dram-GB/s")
	}
}

func BenchmarkFig4RooflineSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rf := experiments.Table2(benchOptions())
		b.ReportMetric(float64(len(rf.Series10G)), "roof-points")
	}
}

func BenchmarkTable2Roofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rf := experiments.Table2(benchOptions())
		b.ReportMetric(rf.Row("hpl", "10GbE").PercentOfPeak, "hpl-%peak@10G")
	}
}

func BenchmarkFig5GPUScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Fig5(benchOptions())
		c := s.Curve("hpl")
		b.ReportMetric(c.Speedup10G(len(c.Nodes)-1), "hpl-speedup@8")
	}
}

func BenchmarkFig6NPBScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Fig6(benchOptions())
		c := s.Curve("ft")
		b.ReportMetric(c.IdealNetGain(len(c.Nodes)-1), "ft-idealnet-gain")
	}
}

func BenchmarkTable3MemModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.Table3(benchOptions())
		b.ReportMetric(m.Row(8, cuda.ZeroCopy).RuntimeNorm, "zerocopy-slowdown@8")
	}
}

func BenchmarkFig7WorkRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wr := experiments.Fig7(benchOptions())
		b.ReportMetric(wr.At(8, 0.5).Normalized, "eff@ratio0.5")
	}
}

func BenchmarkTable4Collocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.Table4(benchOptions())
		both := c.Row("CPU+GPU", "10GbE", 8)
		gpu := c.Row("GPU", "10GbE", 8)
		b.ReportMetric(both.MFLOPSPerWatt/gpu.MFLOPSPerWatt, "colloc-eff-gain")
	}
}

func BenchmarkTable6CaviumCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cc := experiments.Table6(benchOptions())
		b.ReportMetric(cc.Row("mg").NormRuntime, "mg-cavium-slowdown")
	}
}

func BenchmarkFig8PLSCounters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cc := experiments.Table6(benchOptions())
		b.ReportMetric(float64(cc.Components95), "pls-components")
	}
}

func BenchmarkFig9DiscreteGPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Fig9(benchOptions())
		b.ReportMetric(d.Row("googlenet", 8).NormRuntime, "googlenet-vs-gtx")
	}
}

func BenchmarkFig10AIBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.Fig10(benchOptions())
		b.ReportMetric(a.Row("googlenet", 8).NormCPUCyclesSec, "cpu-cycles-ratio")
	}
}

// --- Ablation benches on the design choices DESIGN.md calls out ---------

// Ablation: the 10 GbE upgrade on the most network-bound workload.
func BenchmarkAblationNetworkChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		slow, _ := core.Run(core.TX1(8, core.GigE), "tealeaf3d", 0.04)
		fast, _ := core.Run(core.TX1(8, core.TenGigE), "tealeaf3d", 0.04)
		b.ReportMetric(slow.Runtime/fast.Runtime, "tealeaf3d-10g-speedup")
	}
}

// Ablation: zero-copy vs explicit copies on the integrated GPU.
func BenchmarkAblationZeroCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hd, _ := core.RunWithMemModel(core.TX1(4, core.TenGigE), "jacobi", 0.04, cuda.HostDevice)
		zc, _ := core.RunWithMemModel(core.TX1(4, core.TenGigE), "jacobi", 0.04, cuda.ZeroCopy)
		b.ReportMetric(zc.Runtime/hd.Runtime, "zerocopy-slowdown")
	}
}

// Ablation: the hpl work split between GPU and a CPU core (Fig. 7's
// underlying mechanism).
func BenchmarkAblationHPLWorkSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		all, _ := core.Run(core.TX1(4, core.TenGigE), "hpl", 0.04)
		b.ReportMetric(all.MFLOPSPerWatt(), "MFLOPS/W")
	}
}

// --- Micro-benchmarks on the host kernel and the nn accounting ----------

func BenchmarkKernelJacobiSweep(b *testing.B) {
	n := 256
	u, v, f := kernels.NewGrid2D(n, n), kernels.NewGrid2D(n, n), kernels.NewGrid2D(n, n)
	b.SetBytes(int64(kernels.JacobiSweepBytes(n, n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.JacobiStep(v, u, f, 1.0/float64(n+1))
		u, v = v, u
	}
}

func BenchmarkNNAlexNetAccounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := nn.AlexNet()
		b.ReportMetric(net.TotalFLOPs()/1e9, "GFLOP/image")
	}
}

// Simulator throughput: events per second on a communication-heavy run.
// events/s is the engine's headline metric — wall-clock event throughput,
// the number every artifact regeneration is bounded by.
func BenchmarkSimulatorEventRate(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.TX1(8, core.TenGigE), "cg", 0.04)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		b.ReportMetric(res.Runtime, "simulated-s")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec, "events/s")
	}
}

// Extension ablation: FP16 inference on the Tegra vs the desktop Maxwell.
func BenchmarkAblationFP16Inference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fp32, _ := core.RunWithConfig(core.TX1(4, core.TenGigE), "googlenet",
			workloads.Config{Scale: 0.04})
		fp16, _ := core.RunWithConfig(core.TX1(4, core.TenGigE), "googlenet",
			workloads.Config{Scale: 0.04, HalfPrecision: true})
		b.ReportMetric(fp32.Runtime/fp16.Runtime, "fp16-speedup")
	}
}

// Extension ablation: hypothetical GPUDirect on the most transfer-bound
// workload.
func BenchmarkAblationGPUDirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		staged, _ := core.Run(core.TX1(4, core.TenGigE), "tealeaf3d", 0.04)
		cfg := core.TX1(4, core.TenGigE)
		cfg.GPUDirect = true
		direct, _ := core.Run(cfg, "tealeaf3d", 0.04)
		b.ReportMetric(staged.Runtime/direct.Runtime, "gpudirect-speedup")
	}
}

// Extension: weak-scaling hpl (the Tibidabo regime of the related work).
func BenchmarkExtensionWeakScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := experiments.WeakScaling(benchOptions())
		b.ReportMetric(ws.Efficiency(), "weak-efficiency@8")
	}
}
