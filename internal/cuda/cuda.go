// Package cuda models the CUDA execution and memory-management semantics
// the paper analyzes: kernel launches on an integrated (TX1) or discrete
// (GTX 980) Maxwell GPU, explicit host<->device copies, and the three
// memory-management models of Sec. II-B — host-and-device copy, zero-copy,
// and unified memory — including the TX1 behaviour where zero-copy
// mappings bypass the GPU cache hierarchy to preserve coherency (Sec.
// III-B.5, confirmed with Nvidia in the paper).
package cuda

import (
	"math"

	"clustersoc/internal/perf"
	"clustersoc/internal/sim"
	"clustersoc/internal/soc"
)

// MemModel selects one of the three CUDA memory-management models.
type MemModel int

const (
	// HostDevice is the conventional model: separate address spaces with
	// explicit cudaMemcpy, even on unified-memory hardware like the TX1.
	HostDevice MemModel = iota
	// ZeroCopy maps host memory into the device: no copies, but on the TX1
	// every access bypasses the GPU L2 to stay coherent.
	ZeroCopy
	// Unified is CUDA managed memory: data migrates automatically; caching
	// works, copies still happen (transparently), plus driver overhead.
	Unified
)

// String names the model as the paper's Table III does.
func (m MemModel) String() string {
	switch m {
	case HostDevice:
		return "H & D"
	case ZeroCopy:
		return "zero-copy"
	case Unified:
		return "unified memory"
	}
	return "unknown"
}

// unifiedOverhead is the driver cost factor of managed-memory migration
// relative to an explicit memcpy.
const unifiedOverhead = 1.02

// Kernel describes one GPU kernel's resource demands.
type Kernel struct {
	Name string
	// FLOPs executed by the kernel.
	FLOPs float64
	// Bytes of memory traffic the kernel requests (through the L2).
	Bytes float64
	// L2HitRatio is the fraction of Bytes the L2 serves under normal
	// caching; the remainder goes to DRAM.
	L2HitRatio float64
	// SinglePrecision kernels run at the FP32 rate (AI inference); double
	// precision (the scientific codes) pays the Maxwell 1/32 ratio.
	SinglePrecision bool
	// HalfPrecision kernels run at the FP16 rate — 2x FP32 on the TX1 but
	// 1/64 on the desktop GM204 — and halve the memory traffic. Takes
	// precedence over SinglePrecision.
	HalfPrecision bool
}

// Device is one simulated GPU.
type Device struct {
	Config soc.GPUConfig
	Model  MemModel

	eng    *sim.Engine
	mem    *sim.Pipe     // device-visible memory (shared node DRAM or GDDR5)
	pcie   *sim.Pipe     // host link for discrete cards; nil when integrated
	stream *sim.Resource // default stream: kernels serialize

	Metrics perf.GPUMetrics
	smBusy  float64 // SM-seconds, for the power meter
}

// New creates a device. mem is the pipe its memory accesses go through:
// for an integrated GPU pass the node's shared DRAM pipe, so CPU and GPU
// traffic contend (the paper's central hardware property); for a discrete
// card pass a dedicated GDDR5 pipe and a PCIe pipe for copies.
func New(e *sim.Engine, cfg soc.GPUConfig, mem, pcie *sim.Pipe) *Device {
	return &Device{
		Config: cfg,
		Model:  HostDevice,
		eng:    e,
		mem:    mem,
		pcie:   pcie,
		stream: sim.NewResource(1),
	}
}

// SMBusySeconds returns accumulated SM-seconds for power accounting.
func (d *Device) SMBusySeconds() float64 { return d.smBusy }

// effectiveRate returns the FLOP/s the kernel's precision can reach.
func (d *Device) effectiveRate(k Kernel) float64 {
	switch {
	case k.HalfPrecision:
		return d.Config.PeakFP16() * d.Config.Efficiency
	case k.SinglePrecision:
		return d.Config.PeakFP32() * d.Config.Efficiency
	default:
		return d.Config.PeakFP64() * d.Config.Efficiency
	}
}

// Op is a kernel launch or a host-device copy in progress on a Device,
// run as a step of the process that issued it: call Step at once, and
// again at each wake-up it arranges, until it reports true. It is the
// only form of a GPU operation: a caller runs it inside a larger step
// (sim.Process.Await), or as a helper's whole life
// (sim.Engine.SpawnStep) to overlap a kernel with the caller's own work.
// Build one with KernelOp or CopyOp.
type Op struct {
	d     *Device
	p     *sim.Process
	k     Kernel
	bytes float64 // a copy's bytes; 0 for a kernel
	copy  bool
	phase uint8

	start   float64 // when the kernel began executing, or the copy began
	hit     float64 // the kernel's effective L2 hit ratio
	dram    float64 // the kernel's DRAM bytes
	compute float64 // the kernel's compute time
	memTime float64 // the kernel's memory time, once its traffic landed
	stall   float64 // the kernel's memory-stall seconds, once done
}

// The phases of an Op.
const (
	opStart    uint8 = iota // not yet begun
	opQueued                // a kernel waiting for the stream
	opOverhead              // a kernel waiting out the launch overhead
	opMemory                // waiting for the memory traffic (or the copy) to land
	opCompute               // a kernel waiting out its compute remainder
)

// KernelOp returns the launch of k by p, not yet begun. Kernels on the
// default stream serialize. The kernel's duration is the max of its
// compute time and its memory time, the latter shaped by the memory
// model.
func (d *Device) KernelOp(p *sim.Process, k Kernel) Op {
	return Op{d: d, p: p, k: k}
}

// CopyOp returns a host-to-device or device-to-host copy of bytes by p
// under the memory-management model, not yet begun.
func (d *Device) CopyOp(p *sim.Process, bytes float64) Op {
	return Op{d: d, p: p, bytes: bytes, copy: true}
}

// StallSeconds returns the memory-stall share of a finished kernel — the
// critical-path recorder uses it to split a kernel span into GPU-compute
// and DRAM-stall time.
func (o *Op) StallSeconds() float64 { return o.stall }

// Step advances the operation and reports whether it is done.
func (o *Op) Step() bool {
	if o.copy {
		return o.stepCopy()
	}
	d, p, k := o.d, o.p, &o.k
	switch o.phase {
	case opStart:
		if !d.stream.TryAcquire(p) {
			p.Block()
			o.phase = opQueued
			return false
		}
		fallthrough
	case opQueued:
		// The stream is ours: Release handed it over if we queued.
		p.WakeAfter(d.Config.LaunchOverhead)
		o.phase = opOverhead
		return false
	case opOverhead:
		o.start = p.Now()
		hit := math.Min(1, math.Max(0, k.L2HitRatio))
		if k.HalfPrecision {
			k.Bytes /= 2 // half-width values halve the traffic
		}
		bw := d.Config.MemBandwidth
		if d.Model == ZeroCopy {
			// TX1 zero-copy: cache hierarchy bypassed for coherency; every
			// byte goes to memory at a degraded coherent-path rate. On a
			// discrete card the "memory" is host DRAM across PCIe.
			hit = 0
			bw *= d.Config.ZeroCopyPenalty
		}
		o.hit = hit
		o.dram = k.Bytes * (1 - hit)
		o.compute = k.FLOPs / d.effectiveRate(*k)
		if o.dram > 0 {
			var done float64
			if d.Model == ZeroCopy && d.pcie != nil {
				done = d.pcie.TransferEvent(o.dram, 0)
			} else {
				done = d.mem.TransferEvent(o.dram, bw)
			}
			d.eng.ResumeAt(done, p)
			o.phase = opMemory
			return false
		}
		fallthrough
	case opMemory:
		o.memTime = p.Now() - o.start
		if o.compute > o.memTime {
			p.WakeAfter(o.compute - o.memTime)
			o.phase = opCompute
			return false
		}
	}
	computeTime := o.compute
	dur := p.Now() - o.start
	d.smBusy += dur * float64(d.Config.SMs)
	d.Metrics.Launches++
	d.Metrics.KernelSeconds += dur
	d.Metrics.FLOPs += k.FLOPs
	d.Metrics.DRAMBytes += o.dram
	d.Metrics.L2Accesses += k.Bytes
	d.Metrics.L2Hits += k.Bytes * o.hit
	d.Metrics.ComputeSeconds += math.Min(computeTime, dur)
	o.stall = 0
	if o.memTime > computeTime {
		d.Metrics.StallSeconds += o.memTime - computeTime
		o.stall = o.memTime - computeTime
	}
	d.stream.Release(d.eng)
	return true
}

// stepCopy is Step for a copy.
func (o *Op) stepCopy() bool {
	d, p := o.d, o.p
	if o.phase == opStart {
		if o.bytes <= 0 || d.Model == ZeroCopy {
			// Nothing to move; under zero-copy the kernel accesses host
			// memory in place (and pays for it there).
			return true
		}
		if d.Model == Unified {
			o.bytes *= unifiedOverhead
		}
		o.start = p.Now()
		var done float64
		if d.pcie != nil {
			// Discrete: host DRAM -> PCIe -> GDDR5; PCIe is the bottleneck.
			done = d.pcie.TransferEvent(o.bytes, 0)
		} else {
			// Integrated: a memcpy within the shared DRAM reads and writes
			// the data, so it costs 2x bytes of DRAM traffic at the CPU
			// port rate.
			done = d.mem.TransferEvent(2*o.bytes, d.Config.MemBandwidth)
		}
		d.eng.ResumeAt(done, p)
		o.phase = opMemory
		return false
	}
	d.Metrics.CopyBytes += o.bytes
	d.Metrics.CopySeconds += p.Now() - o.start
	return true
}
