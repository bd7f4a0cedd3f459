package cluster

import (
	"fmt"

	"clustersoc/internal/cuda"
	"clustersoc/internal/faults"
	"clustersoc/internal/mpi"
	"clustersoc/internal/sim"
	"clustersoc/internal/soc"
)

// Context is the per-rank programming interface the workload models use:
// CPU compute, CUDA operations, and MPI communication, all instrumented
// for power, counters, and tracing.
type Context struct {
	cl    *Cluster
	Rank  int
	P     *sim.Process
	node  *Node
	comm  *mpi.Comm
	job   *Job
	fst   faults.RankState
	cpEnt int32 // critpath timeline handle; meaningful only when cl.cp != nil
}

// Size returns the number of ranks in the communicator.
func (ctx *Context) Size() int { return ctx.comm.Size() }

// Node returns this rank's node configuration.
func (ctx *Context) Node() soc.NodeConfig { return ctx.node.Type }

// NodeIndex returns the hosting node's index.
func (ctx *Context) NodeIndex() int { return ctx.node.Index }

// RanksPerNode returns the process density.
func (ctx *Context) RanksPerNode() int { return ctx.cl.ranksPerNode }

// Now returns the simulation time.
func (ctx *Context) Now() float64 { return ctx.P.Now() }

// Compute runs CPU work on one core of this rank's node: the time comes
// from the microarchitecture model, the DRAM traffic is booked on the
// node's shared memory pipe (where it contends with the integrated GPU),
// and the PMU counters accumulate.
func (ctx *Context) Compute(w soc.CPUWork) {
	ctx.ComputeParallel(w, 1)
}

// ComputeParallel runs CPU work spread over `cores` cores of the node
// (e.g. multi-threaded JPEG decoding): wall time divides by the core
// count, busy time and counters do not.
func (ctx *Context) ComputeParallel(w soc.CPUWork, cores int) {
	if cores < 1 {
		cores = 1
	}
	if cores > ctx.node.Type.CPU.Cores {
		cores = ctx.node.Type.CPU.Cores
	}
	sharers := ctx.cl.ranksPerNode
	if cores > sharers {
		sharers = cores
	}
	r := ctx.node.Type.CPU.Cost(w, sharers)
	if f := ctx.cl.inj.ComputeFactor(ctx.node.Index); f != 1 {
		// A straggler node's compute stretches uniformly: more wall time
		// and more of it stalled, but the same instructions and traffic.
		r.Seconds *= f
		r.MemStallSeconds *= f
	}
	start := ctx.P.Now()
	if r.DRAMBytes > 0 {
		// Book the traffic for contention accounting without serializing
		// the computation behind it (the stall time is already inside
		// r.Seconds).
		ctx.node.DRAM.TransferEvent(r.DRAMBytes, ctx.node.Type.CPU.MemBandwidth, nil)
	}
	dur := r.Seconds / float64(cores)
	ctx.P.Sleep(dur)
	ctx.node.PMU.Add(r.PMU)
	ctx.node.cpuBusy += r.Seconds
	ctx.node.cpuMemStall += r.MemStallSeconds
	ctx.node.Meter.AddDRAM(r.DRAMBytes)
	ctx.creditFlops(w.Flops)
	if ctx.cl.cp != nil {
		// The wall-clock stall share of the phase: MemStallSeconds is in
		// busy core-seconds, the span in wall seconds.
		stall := 0.0
		if r.Seconds > 0 {
			stall = dur * r.MemStallSeconds / r.Seconds
		}
		ctx.cl.cp.Compute(ctx.cpEnt, start, ctx.P.Now(), stall, ctx.cl.inj.ComputeFactor(ctx.node.Index))
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCompute(ctx.Rank, dur, start)
	}
}

// GPU returns this rank's CUDA device (nil on CPU-only systems).
func (ctx *Context) GPU() *cuda.Device { return ctx.node.GPU }

// Kernel launches a GPU kernel and blocks until it completes. GPU time is
// recorded as compute in the trace (it is local work for replay purposes).
// On a straggler node the kernel stretches by the node's compute factor
// (the SoC throttles CPU and GPU together — they share the same thermal
// and power envelope); async launches (KernelAsync) are deliberately
// unscaled, since their duration is buried in the device timeline.
func (ctx *Context) Kernel(k cuda.Kernel) {
	start := ctx.P.Now()
	ctx.node.GPU.Launch(ctx.P, k)
	f := ctx.cl.inj.ComputeFactor(ctx.node.Index)
	stall := ctx.node.GPU.LastLaunchStallSeconds()
	if f != 1 {
		ctx.P.Sleep((ctx.P.Now() - start) * (f - 1))
	}
	ctx.creditFlops(k.FLOPs)
	if ctx.cl.cp != nil {
		ctx.cl.cp.Kernel(ctx.cpEnt, start, ctx.P.Now(), stall, f)
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCompute(ctx.Rank, ctx.P.Now()-start, start)
	}
}

// KernelAsync starts a kernel and returns a gate that opens on completion
// (hpl lookahead). The FLOPs are credited immediately; the trace records
// the wait at WaitKernel. Under critpath recording the helper process is
// spawned here — with the same name and engine order as the cuda path, so
// event timing is untouched — and its kernel span lands on a dedicated
// helper timeline bound to the returned gate.
func (ctx *Context) KernelAsync(k cuda.Kernel) *sim.Gate {
	ctx.creditFlops(k.FLOPs)
	if cp := ctx.cl.cp; cp != nil {
		d := ctx.node.GPU
		aux := cp.SpawnAux(ctx.cpEnt, fmt.Sprintf("gpu%d:%s", ctx.node.Index, k.Name), ctx.node.Index)
		g := &sim.Gate{}
		cp.BindGate(g, aux)
		ctx.cl.Eng.Spawn("cuda-async:"+k.Name, func(hp *sim.Process) {
			s0 := hp.Now()
			d.Launch(hp, k)
			cp.Kernel(aux, s0, hp.Now(), d.LastLaunchStallSeconds(), 1)
			g.Open(ctx.cl.Eng)
		})
		return g
	}
	return ctx.node.GPU.LaunchAsync(k)
}

// WaitKernel blocks on an async kernel's completion gate.
func (ctx *Context) WaitKernel(g *sim.Gate) {
	start := ctx.P.Now()
	g.Wait(ctx.P)
	if ctx.cl.cp != nil {
		ctx.cl.cp.GateWait(ctx.cpEnt, g, start, ctx.P.Now())
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCompute(ctx.Rank, ctx.P.Now()-start, start)
	}
}

// CopyIn moves bytes host-to-device under the configured memory model.
func (ctx *Context) CopyIn(bytes float64) {
	start := ctx.P.Now()
	ctx.node.GPU.CopyIn(ctx.P, bytes)
	if ctx.cl.cp != nil {
		ctx.cl.cp.Copy(ctx.cpEnt, start, ctx.P.Now())
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCopy(ctx.Rank, ctx.P.Now()-start, start)
	}
}

// CopyOut moves bytes device-to-host.
func (ctx *Context) CopyOut(bytes float64) {
	start := ctx.P.Now()
	ctx.node.GPU.CopyOut(ctx.P, bytes)
	if ctx.cl.cp != nil {
		ctx.cl.cp.Copy(ctx.cpEnt, start, ctx.P.Now())
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCopy(ctx.Rank, ctx.P.Now()-start, start)
	}
}

// StageOut copies halo/exchange data device-to-host ahead of MPI — a
// no-op when the (hypothetical) GPUDirect path lets the NIC read device
// memory directly.
func (ctx *Context) StageOut(bytes float64) {
	if ctx.node.GPU != nil && ctx.node.GPU.Config.GPUDirect {
		return
	}
	ctx.CopyOut(bytes)
}

// StageIn copies received data host-to-device after MPI — a no-op under
// GPUDirect.
func (ctx *Context) StageIn(bytes float64) {
	if ctx.node.GPU != nil && ctx.node.GPU.Config.GPUDirect {
		return
	}
	ctx.CopyIn(bytes)
}

// Checkpoint marks a resilience point: the rank could restore from here
// with stateBytes of saved state. Workloads call it at natural iteration
// boundaries. Under a fault plan with a crash model it settles any crash
// of this node since the last hook (restart outage + redone work) and
// takes a checkpoint when the plan's interval has elapsed; otherwise it
// is free and changes nothing.
func (ctx *Context) Checkpoint(stateBytes float64) {
	start := ctx.P.Now()
	ctx.cl.inj.Checkpoint(ctx.P, ctx.node.Index, &ctx.fst, stateBytes)
	if ctx.cl.cp != nil {
		// Any time the hook consumed is fault-plane overhead: checkpoint
		// writes, crash outage settlement, redone work.
		ctx.cl.cp.Fault(ctx.cpEnt, start, ctx.P.Now())
	}
}

// Phase marks an iteration boundary for PARAVER-style trace chopping.
func (ctx *Context) Phase() {
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordPhase(ctx.Rank, ctx.P.Now())
	}
}

// Send transmits bytes to rank dst.
func (ctx *Context) Send(dst, tag int, bytes float64) {
	ctx.comm.Send(ctx.P, ctx.Rank, dst, tag, bytes)
}

// Recv blocks for a message from rank src.
func (ctx *Context) Recv(src, tag int) {
	ctx.comm.Recv(ctx.P, ctx.Rank, src, tag)
}

// Sendrecv exchanges with two peers.
func (ctx *Context) Sendrecv(dst, src, tag int, sendBytes, recvBytes float64) {
	ctx.comm.Sendrecv(ctx.P, ctx.Rank, dst, src, tag, sendBytes, recvBytes)
}

// Allreduce combines bytes across all ranks.
func (ctx *Context) Allreduce(bytes float64) {
	ctx.comm.Allreduce(ctx.P, ctx.Rank, bytes)
}

// Bcast broadcasts from root.
func (ctx *Context) Bcast(root int, bytes float64) {
	ctx.comm.Bcast(ctx.P, ctx.Rank, root, bytes)
}

// Reduce combines onto root.
func (ctx *Context) Reduce(root int, bytes float64) {
	ctx.comm.Reduce(ctx.P, ctx.Rank, root, bytes)
}

// Alltoall exchanges bytesPerPair with every other rank.
func (ctx *Context) Alltoall(bytesPerPair float64) {
	ctx.comm.Alltoall(ctx.P, ctx.Rank, bytesPerPair)
}

// Allgather shares each rank's contribution with everyone.
func (ctx *Context) Allgather(bytes float64) {
	ctx.comm.Allgather(ctx.P, ctx.Rank, bytes)
}

// Barrier synchronizes all ranks.
func (ctx *Context) Barrier() {
	ctx.comm.Barrier(ctx.P, ctx.Rank)
}

// CreditFlops adds useful FLOPs that were not run through Compute or
// Kernel (used by analytic phases).
func (ctx *Context) CreditFlops(f float64) { ctx.creditFlops(f) }

func (ctx *Context) creditFlops(f float64) {
	ctx.cl.flops += f
	if ctx.job != nil {
		ctx.job.FLOPs += f
	}
}

// LocalStorageBandwidth is the sequential read rate of a node's local
// storage (the TX1's eMMC; binaries and model weights live there — the
// paper keeps binaries local and only logs/datasets on NFS).
const LocalStorageBandwidth = 150e6

// ReadLocal reads bytes from the node's local storage.
func (ctx *Context) ReadLocal(bytes float64) {
	start := ctx.P.Now()
	ctx.P.Sleep(bytes / LocalStorageBandwidth)
	if ctx.cl.cp != nil {
		ctx.cl.cp.Copy(ctx.cpEnt, start, ctx.P.Now())
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCopy(ctx.Rank, ctx.P.Now()-start, start)
	}
}

// Fetch pulls bytes from the cluster's file server over the network (NFS
// reads: images, model weights), blocking until the data arrives. The
// cluster must be configured with FileServer.
func (ctx *Context) Fetch(bytes float64) {
	if !ctx.cl.Cfg.FileServer {
		panic("cluster: Fetch requires Config.FileServer")
	}
	server := ctx.cl.Cfg.Nodes // last switch port
	_, arrival := ctx.cl.Net.Deliver(server, ctx.node.Index, bytes)
	start := ctx.P.Now()
	var fetchID int32
	if ctx.cl.cp != nil {
		// Claim the Deliver booking before sleeping: another rank's send
		// would overwrite the pending slot while this process is parked.
		fetchID = ctx.cl.cp.FetchStart(ctx.cpEnt)
	}
	ctx.P.SleepUntil(arrival)
	if ctx.cl.cp != nil {
		ctx.cl.cp.FetchDone(ctx.cpEnt, fetchID, start, ctx.P.Now())
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCopy(ctx.Rank, ctx.P.Now()-start, start)
	}
}
