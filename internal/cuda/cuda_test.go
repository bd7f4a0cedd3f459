package cuda

import (
	"math"
	"testing"

	"clustersoc/internal/sim"
	"clustersoc/internal/soc"
	"clustersoc/internal/units"
)

func tx1Device(model MemModel) (*sim.Engine, *Device) {
	e := sim.NewEngine()
	cfg := soc.JetsonTX1()
	dram := sim.NewPipe(e, cfg.DRAMBandwidth, 0)
	d := New(e, *cfg.GPU, dram, nil)
	d.Model = model
	return e, d
}

func gtxDevice(model MemModel) (*sim.Engine, *Device) {
	e := sim.NewEngine()
	cfg := soc.XeonGTX980()
	gddr := sim.NewPipe(e, cfg.GPU.MemBandwidth, 0)
	pcie := sim.NewPipe(e, cfg.GPU.PCIeBandwidth, 5*units.Microsecond)
	d := New(e, *cfg.GPU, gddr, pcie)
	d.Model = model
	return e, d
}

func run(e *sim.Engine, body func(p *sim.Process)) float64 {
	e.Spawn("t", body)
	return e.Run()
}

// launch runs k on d, and copyOp a copy of bytes, as p's Await step: the
// way cluster.Context runs its GPU operations.
func launch(p *sim.Process, d *Device, k Kernel) {
	o := d.KernelOp(p, k)
	p.Await(o.Step)
}

func copyOp(p *sim.Process, d *Device, bytes float64) {
	o := d.CopyOp(p, bytes)
	p.Await(o.Step)
}

func TestComputeBoundKernel(t *testing.T) {
	e, d := tx1Device(HostDevice)
	k := Kernel{Name: "dgemm", FLOPs: 1 * units.GFLOP, Bytes: 1 * units.MB, L2HitRatio: 0.5}
	dur := run(e, func(p *sim.Process) { launch(p, d, k) })
	want := k.FLOPs / (d.Config.PeakFP64() * d.Config.Efficiency)
	if math.Abs(dur-want)/want > 0.05 {
		t.Fatalf("compute-bound kernel took %v, want ~%v", dur, want)
	}
	if d.Metrics.MemoryStallFraction() > 0.01 {
		t.Errorf("compute-bound kernel reports memory stalls: %v", d.Metrics.MemoryStallFraction())
	}
}

func TestMemoryBoundKernel(t *testing.T) {
	e, d := tx1Device(HostDevice)
	k := Kernel{Name: "stream", FLOPs: 1 * units.MFLOP, Bytes: 2 * units.GB, L2HitRatio: 0}
	dur := run(e, func(p *sim.Process) { launch(p, d, k) })
	want := k.Bytes / d.Config.MemBandwidth
	if math.Abs(dur-want)/want > 0.05 {
		t.Fatalf("memory-bound kernel took %v, want ~%v", dur, want)
	}
	if d.Metrics.MemoryStallFraction() < 0.9 {
		t.Errorf("memory-bound kernel stalls = %v, want ~1", d.Metrics.MemoryStallFraction())
	}
}

func TestSinglePrecisionFaster(t *testing.T) {
	e, d := tx1Device(HostDevice)
	kd := Kernel{Name: "fp64", FLOPs: units.GFLOP}
	ks := Kernel{Name: "fp32", FLOPs: units.GFLOP, SinglePrecision: true}
	var t64, t32 float64
	run(e, func(p *sim.Process) {
		s := p.Now()
		launch(p, d, kd)
		t64 = p.Now() - s
		s = p.Now()
		launch(p, d, ks)
		t32 = p.Now() - s
	})
	ratio := t64 / t32
	if math.Abs(ratio-32)/32 > 0.1 {
		t.Fatalf("FP64/FP32 ratio = %.1f, want ~32 (Maxwell)", ratio)
	}
}

// Table III mechanism: zero-copy bypasses the cache hierarchy on the TX1 —
// low L2 utilization, low L2 read throughput, high memory stalls, and a
// roughly 2x runtime on a cache-friendly kernel.
func TestZeroCopyBypassesCache(t *testing.T) {
	k := Kernel{Name: "jacobi", FLOPs: 0.2 * units.GFLOP, Bytes: 1.5 * units.GB, L2HitRatio: 0.45}
	runModel := func(m MemModel) (float64, *Device) {
		e, d := tx1Device(m)
		var dur float64
		run(e, func(p *sim.Process) {
			copyOp(p, d, 100*units.MB)
			s := p.Now()
			launch(p, d, k)
			dur = p.Now() - s
		})
		return dur, d
	}
	hd, dHD := runModel(HostDevice)
	zc, dZC := runModel(ZeroCopy)
	if dZC.Metrics.L2Utilization() != 0 {
		t.Errorf("zero-copy L2 utilization = %v, want 0", dZC.Metrics.L2Utilization())
	}
	if dHD.Metrics.L2Utilization() < 0.4 {
		t.Errorf("H&D L2 utilization = %v, want ~0.45", dHD.Metrics.L2Utilization())
	}
	slowdown := zc / hd
	if slowdown < 1.5 || slowdown > 6 {
		t.Errorf("zero-copy slowdown = %.2f, want the ~2-4x regime", slowdown)
	}
	if dZC.Metrics.MemoryStallFraction() <= dHD.Metrics.MemoryStallFraction() {
		t.Error("zero-copy should stall more on memory")
	}
}

// Unified memory performs like host-and-device (Table III: 1.00 +- few %).
func TestUnifiedMatchesHostDevice(t *testing.T) {
	k := Kernel{Name: "jacobi", FLOPs: 0.2 * units.GFLOP, Bytes: 1.5 * units.GB, L2HitRatio: 0.45}
	total := func(m MemModel) float64 {
		e, d := tx1Device(m)
		return run(e, func(p *sim.Process) {
			copyOp(p, d, 100*units.MB)
			launch(p, d, k)
			copyOp(p, d, 100*units.MB)
		})
	}
	hd, um := total(HostDevice), total(Unified)
	if r := um / hd; r < 0.98 || r > 1.06 {
		t.Fatalf("unified/hd runtime ratio = %.3f, want ~1.0", r)
	}
}

// On a discrete card explicit copies ride PCIe; integrated copies are a
// DRAM memcpy. Both must be slower than zero (cost something) and the
// discrete path must reflect PCIe bandwidth.
func TestDiscreteCopyUsesPCIe(t *testing.T) {
	e, d := gtxDevice(HostDevice)
	bytes := 1 * units.GB
	dur := run(e, func(p *sim.Process) { copyOp(p, d, bytes) })
	want := bytes / d.Config.PCIeBandwidth
	if math.Abs(dur-want)/want > 0.05 {
		t.Fatalf("PCIe copy took %v, want ~%v", dur, want)
	}
}

func TestKernelsSerializeOnStream(t *testing.T) {
	e, d := tx1Device(HostDevice)
	k := Kernel{Name: "k", FLOPs: units.GFLOP}
	single := k.FLOPs / (d.Config.PeakFP64() * d.Config.Efficiency)
	// Two helpers launch at once, as an async kernel's helper does.
	var done []float64
	for i := 0; i < 2; i++ {
		var o Op
		h := e.SpawnStep("async", func() bool {
			if !o.Step() {
				return false
			}
			done = append(done, e.Now())
			return true
		})
		o = d.KernelOp(h, k)
	}
	e.Run()
	if len(done) != 2 {
		t.Fatal("async kernels did not complete")
	}
	if done[1] < 2*single*0.95 || done[1]-done[0] < single*0.95 {
		t.Fatalf("two kernels finished at %v; they must serialize (~%v apart)", done, single)
	}
}

// Integrated-GPU copies share the node DRAM: CPU traffic delays them.
func TestIntegratedCopySharesDRAM(t *testing.T) {
	e := sim.NewEngine()
	cfg := soc.JetsonTX1()
	dram := sim.NewPipe(e, cfg.DRAMBandwidth, 0)
	d := New(e, *cfg.GPU, dram, nil)
	// A CPU streaming phase hogs the DRAM first: its traffic is booked
	// the way cluster.Context books a compute phase's.
	dram.TransferEvent(2*units.GB, cfg.CPU.MemBandwidth)
	var copyDone float64
	e.Spawn("gpu", func(p *sim.Process) {
		copyOp(p, d, 100*units.MB)
		copyDone = p.Now()
	})
	e.Run()
	alone := 2 * 100 * units.MB / cfg.GPU.MemBandwidth
	if copyDone < alone*2 {
		t.Fatalf("GPU copy unaffected by CPU DRAM contention: %v vs alone %v", copyDone, alone)
	}
	if d.SMBusySeconds() != 0 {
		t.Error("copies should not count as SM busy time")
	}
}

// FP16 runs 2x FP32 on the Tegra Maxwell but 64x slower on the GM204 —
// the asymmetry the extensions example demonstrates.
func TestHalfPrecisionAsymmetry(t *testing.T) {
	kh := Kernel{Name: "fp16", FLOPs: units.GFLOP, HalfPrecision: true}
	ks := Kernel{Name: "fp32", FLOPs: units.GFLOP, SinglePrecision: true}
	timeFor := func(mk func(MemModel) (*sim.Engine, *Device), k Kernel) float64 {
		e, d := mk(HostDevice)
		var dur float64
		run(e, func(p *sim.Process) {
			s := p.Now()
			launch(p, d, k)
			dur = p.Now() - s
		})
		return dur
	}
	txHalf := timeFor(tx1Device, kh)
	txSingle := timeFor(tx1Device, ks)
	if r := txSingle / txHalf; math.Abs(r-2)/2 > 0.1 {
		t.Errorf("TX1 FP32/FP16 ratio %.2f, want ~2", r)
	}
	gtxHalf := timeFor(gtxDevice, kh)
	gtxSingle := timeFor(gtxDevice, ks)
	if r := gtxHalf / gtxSingle; r < 30 {
		t.Errorf("GTX 980 FP16 should be catastrophic, got only %.1fx slower", r)
	}
}

// Half precision also halves the kernel's memory traffic.
func TestHalfPrecisionHalvesTraffic(t *testing.T) {
	e, d := tx1Device(HostDevice)
	k := Kernel{Name: "stream16", FLOPs: 1, Bytes: 2 * units.GB, HalfPrecision: true}
	run(e, func(p *sim.Process) { launch(p, d, k) })
	if math.Abs(d.Metrics.DRAMBytes-units.GB) > 1 {
		t.Fatalf("FP16 DRAM traffic %v, want half of 2GB", d.Metrics.DRAMBytes)
	}
}
