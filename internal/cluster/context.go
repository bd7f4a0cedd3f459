package cluster

import (
	"fmt"
	"math"

	"clustersoc/internal/cuda"
	"clustersoc/internal/faults"
	"clustersoc/internal/mpi"
	"clustersoc/internal/sim"
	"clustersoc/internal/soc"
)

// Context is the per-rank programming interface the workload models use:
// CPU compute, CUDA operations, and MPI communication, all instrumented
// for power, counters, and tracing.
//
// Every operation is queued, not run: the call copies its arguments, and
// the rank runs its queued operations on the event loop, as one
// sim.Process.Await step, when the queue is full, when the body reads
// Now, and when the body returns. The step starts each operation as soon
// as the one before it completes, before any other event pops, which is
// exactly where the body would have started it; a body touches no
// simulation state between operations, so the run is the one a body
// calling each operation in turn would make. The rank's goroutine is
// switched in once per flush, not once per operation.
type Context struct {
	cl    *Cluster
	Rank  int
	p     *sim.Process
	node  *Node
	comm  *mpi.Comm
	job   *Job
	fst   faults.RankState
	cpEnt int32 // critpath timeline handle; meaningful only when cl.cp != nil

	// The queue: this rank's windows of the job's op and kind slabs, and
	// the gates, async kernels and core counts its operations name, in
	// order.
	q       []op
	kinds   []opKind
	refs    []any
	next    int         // index of the operation running during a flush
	nextRef int         // index in refs of the next one an operation takes
	run     func() bool // step, bound once

	// The running operation's progress.
	phase   uint8
	start   float64
	cost    soc.CostResult // Compute: the phase's cost
	dur     float64        // Compute: its wall time
	gpu     cuda.Op        // Kernel, CopyIn, CopyOut
	gate    *sim.Gate      // WaitKernel
	call    *mpi.Call      // the MPI calls
	fetchID int32          // Fetch: the critpath booking
}

// queueCap is how many operations a rank queues before it runs them, so
// the rank's goroutine is switched in about once per queueCap operations.
// It is a variable only so a test can set it to 1, which runs each
// operation alone, as it is called.
var queueCap = 32

// opKind names a queued operation.
type opKind uint8

const (
	opCompute   opKind = iota // on one core
	opComputeOn               // on the core count it takes from refs
	opKernel
	opKernelAsync
	opWaitKernel
	opCopy
	opReadLocal
	opFetch
	opCheckpoint
	opPhase
	opSend
	opRecv
	opSendrecv
	opAllreduce
	opBcast
	opAlltoall
	opBarrier
)

// op holds one queued operation's arguments, copied when the body called,
// as 64-bit words: a Compute's CPUWork fields (workArgs), or another
// kind's floats (math.Float64bits) and integers. Its kind sits beside it
// in kinds, and a gate, async kernel or core count it names in refs, so a
// rank's 32-op queue costs 2 KB of ops and 32 bytes of kinds.
type op [8]uint64

func (o *op) float(i int) float64 { return math.Float64frombits(o[i]) }
func (o *op) int(i int) int       { return int(int64(o[i])) }

// bits and word store a float and an integer in an op.
func bits(f float64) uint64 { return math.Float64bits(f) }
func word(v int) uint64     { return uint64(int64(v)) }

// enqueue queues an op of kind k and runs the queue once it is full. An
// op that names a ref appends it to refs first.
func (ctx *Context) enqueue(k opKind, o op) {
	ctx.q = append(ctx.q, o)
	ctx.kinds = append(ctx.kinds, k)
	if len(ctx.q) == cap(ctx.q) {
		ctx.flush()
	}
}

// takeRef returns the next ref, for the operation starting to run.
func (ctx *Context) takeRef() any {
	r := ctx.refs[ctx.nextRef]
	ctx.nextRef++
	return r
}

// flush runs the queued operations to completion.
func (ctx *Context) flush() {
	if len(ctx.q) == 0 {
		return
	}
	ctx.next, ctx.nextRef = 0, 0
	ctx.p.Await(ctx.run)
	ctx.q = ctx.q[:0]
	ctx.kinds = ctx.kinds[:0]
	clear(ctx.refs)
	ctx.refs = ctx.refs[:0]
}

// step runs queued operations from next on, each starting as soon as the
// one before completes, and reports whether the queue is done.
func (ctx *Context) step() bool {
	for ; ctx.next < len(ctx.q); ctx.next++ {
		o, k := &ctx.q[ctx.next], ctx.kinds[ctx.next]
		var done bool
		switch k {
		case opCompute, opComputeOn:
			done = ctx.compute(o, k == opComputeOn)
		case opKernel:
			done = ctx.kernel(o)
		case opKernelAsync:
			ctx.kernelAsync(ctx.takeRef().(*asyncKernel))
			done = true
		case opWaitKernel:
			done = ctx.waitKernel()
		case opCopy:
			done = ctx.copy(o.float(0))
		case opReadLocal:
			done = ctx.readLocal(o.float(0))
		case opFetch:
			done = ctx.fetch(o.float(0))
		case opCheckpoint:
			done = ctx.checkpoint(o.float(0))
		case opPhase:
			ctx.cl.Tracer.RecordPhase(ctx.Rank, ctx.p.Now())
			done = true
		default:
			done = ctx.mpiCall(k, o)
		}
		if !done {
			return false
		}
		ctx.phase = 0
	}
	return true
}

// Size returns the number of ranks in the communicator.
func (ctx *Context) Size() int { return ctx.comm.Size() }

// Node returns this rank's node configuration.
func (ctx *Context) Node() soc.NodeConfig { return ctx.node.Type }

// Now returns the simulation time once every operation called so far has
// completed.
func (ctx *Context) Now() float64 {
	ctx.flush()
	return ctx.p.Now()
}

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
	if cores == 1 {
		ctx.enqueue(opCompute, workArgs(w))
		return
	}
	ctx.refs = append(ctx.refs, cores)
	ctx.enqueue(opComputeOn, workArgs(w))
}

// workArgs packs a CPUWork into an op; work unpacks it.
func workArgs(w soc.CPUWork) op {
	return op{bits(w.Instr), bits(w.Flops), bits(w.Branches), bits(w.BranchEntropy),
		bits(w.MemAccesses), bits(w.L1MissRate), bits(w.WorkingSet), bits(w.Bytes)}
}

func (o *op) work() soc.CPUWork {
	return soc.CPUWork{Instr: o.float(0), Flops: o.float(1), Branches: o.float(2), BranchEntropy: o.float(3),
		MemAccesses: o.float(4), L1MissRate: o.float(5), WorkingSet: o.float(6), Bytes: o.float(7)}
}

func (ctx *Context) compute(o *op, on bool) bool {
	n := ctx.node
	if ctx.phase == 0 {
		cores := 1
		if on {
			cores = ctx.takeRef().(int)
		}
		sharers := ctx.cl.ranksPerNode
		if cores > sharers {
			sharers = cores
		}
		r := n.Type.CPU.Cost(o.work(), sharers)
		if f := ctx.cl.inj.ComputeFactor(n.Index); f != 1 {
			// A straggler node's compute stretches uniformly: more wall
			// time and more of it stalled, but the same instructions and
			// traffic.
			r.Seconds *= f
			r.MemStallSeconds *= f
		}
		ctx.start = ctx.p.Now()
		if r.DRAMBytes > 0 {
			// Book the traffic for contention accounting without
			// serializing the computation behind it (the stall time is
			// already inside r.Seconds).
			n.DRAM.TransferEvent(r.DRAMBytes, n.Type.CPU.MemBandwidth)
		}
		ctx.cost = r
		ctx.dur = r.Seconds / float64(cores)
		ctx.p.WakeAfter(ctx.dur)
		ctx.phase = 1
		return false
	}
	r := &ctx.cost
	n.PMU.Add(r.PMU)
	n.cpuBusy += r.Seconds
	n.cpuMemStall += r.MemStallSeconds
	n.Meter.AddDRAM(r.DRAMBytes)
	ctx.creditFlops(o.float(1))
	if ctx.cl.cp != nil {
		// The wall-clock stall share of the phase: MemStallSeconds is in
		// busy core-seconds, the span in wall seconds.
		stall := 0.0
		if r.Seconds > 0 {
			stall = ctx.dur * r.MemStallSeconds / r.Seconds
		}
		ctx.cl.cp.Compute(ctx.cpEnt, ctx.start, ctx.p.Now(), stall, ctx.cl.inj.ComputeFactor(n.Index))
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCompute(ctx.Rank, ctx.dur, ctx.start)
	}
	return true
}

// The precision bits of a Kernel op's word 3.
const (
	kernelSingle = 1 << iota
	kernelHalf
)

// kernelArgs packs a kernel into an op; kernel unpacks it (without the
// name, which a launch does not read).
func kernelArgs(k cuda.Kernel) op {
	o := op{bits(k.FLOPs), bits(k.Bytes), bits(k.L2HitRatio)}
	if k.SinglePrecision {
		o[3] |= kernelSingle
	}
	if k.HalfPrecision {
		o[3] |= kernelHalf
	}
	return o
}

func (o *op) kernel() cuda.Kernel {
	return cuda.Kernel{FLOPs: o.float(0), Bytes: o.float(1), L2HitRatio: o.float(2),
		SinglePrecision: o[3]&kernelSingle != 0, HalfPrecision: o[3]&kernelHalf != 0}
}

// Kernel launches a GPU kernel and blocks until it completes. GPU time is
// recorded as compute in the trace (it is local work for replay purposes).
// On a straggler node the kernel stretches by the node's compute factor
// (the SoC throttles CPU and GPU together — they share the same thermal
// and power envelope); async launches (KernelAsync) are deliberately
// unscaled, since their duration is buried in the device timeline.
func (ctx *Context) Kernel(k cuda.Kernel) {
	ctx.enqueue(opKernel, kernelArgs(k))
}

func (ctx *Context) kernel(o *op) bool {
	f := ctx.cl.inj.ComputeFactor(ctx.node.Index)
	switch ctx.phase {
	case 0:
		ctx.start = ctx.p.Now()
		ctx.gpu = ctx.node.GPU.KernelOp(ctx.p, o.kernel())
		ctx.phase = 1
		fallthrough
	case 1:
		if !ctx.gpu.Step() {
			return false
		}
		if f != 1 {
			ctx.p.WakeAfter((ctx.p.Now() - ctx.start) * (f - 1))
			ctx.phase = 2
			return false
		}
	}
	ctx.creditFlops(o.float(0))
	if ctx.cl.cp != nil {
		ctx.cl.cp.Kernel(ctx.cpEnt, ctx.start, ctx.p.Now(), ctx.gpu.StallSeconds(), f)
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCompute(ctx.Rank, ctx.p.Now()-ctx.start, ctx.start)
	}
	return true
}

// asyncKernel is a KernelAsync: the kernel and the gate its completion
// opens, made when the body calls, and the helper process that runs the
// launch, once it starts.
type asyncKernel struct {
	g   sim.Gate
	k   cuda.Kernel
	op  cuda.Op
	cl  *Cluster
	aux int32   // the helper's critpath timeline, when recording
	s0  float64 // the helper's activation: it is spawned to run at once
}

// KernelAsync starts a kernel and returns a gate that opens on completion
// (hpl lookahead). The launch runs on a helper process with no goroutine
// (sim.Engine.SpawnStep), so it overlaps the rank's later operations. The
// FLOPs are credited when the launch starts; the trace records the wait
// at WaitKernel. Under critpath recording the helper's kernel span lands
// on a dedicated helper timeline bound to the gate; recording changes
// no event. Wait on the gate only through WaitKernel: the body runs
// ahead of the simulation, so the gate's own state is not yet the body's.
func (ctx *Context) KernelAsync(k cuda.Kernel) *sim.Gate {
	a := &asyncKernel{k: k}
	ctx.refs = append(ctx.refs, a)
	ctx.enqueue(opKernelAsync, op{})
	return &a.g
}

func (ctx *Context) kernelAsync(a *asyncKernel) {
	ctx.creditFlops(a.k.FLOPs)
	a.cl, a.s0 = ctx.cl, ctx.p.Now()
	if cp := ctx.cl.cp; cp != nil {
		a.aux = cp.SpawnAux(ctx.cpEnt, fmt.Sprintf("gpu%d:%s", ctx.node.Index, a.k.Name), ctx.node.Index)
		cp.BindGate(&a.g, a.aux)
	}
	a.op = ctx.node.GPU.KernelOp(ctx.cl.Eng.SpawnStep("cuda-async:"+a.k.Name, a.step), a.k)
}

// step is the helper's whole life: the launch, its critpath span, and
// the gate's opening.
func (a *asyncKernel) step() bool {
	if !a.op.Step() {
		return false
	}
	if cp := a.cl.cp; cp != nil {
		cp.Kernel(a.aux, a.s0, a.cl.Eng.Now(), a.op.StallSeconds(), 1)
	}
	a.g.Open(a.cl.Eng)
	return true
}

// WaitKernel blocks on an async kernel's completion gate.
func (ctx *Context) WaitKernel(g *sim.Gate) {
	ctx.refs = append(ctx.refs, g)
	ctx.enqueue(opWaitKernel, op{})
}

func (ctx *Context) waitKernel() bool {
	if ctx.phase == 0 {
		ctx.gate = ctx.takeRef().(*sim.Gate)
		ctx.start = ctx.p.Now()
		if !ctx.gate.TryWait(ctx.p) {
			ctx.p.Block()
			ctx.phase = 1
			return false
		}
	}
	if ctx.cl.cp != nil {
		ctx.cl.cp.GateWait(ctx.cpEnt, ctx.gate, ctx.start, ctx.p.Now())
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCompute(ctx.Rank, ctx.p.Now()-ctx.start, ctx.start)
	}
	return true
}

// CopyIn moves bytes host-to-device under the configured memory model.
func (ctx *Context) CopyIn(bytes float64) {
	ctx.enqueue(opCopy, op{bits(bytes)})
}

// CopyOut moves bytes device-to-host.
func (ctx *Context) CopyOut(bytes float64) {
	ctx.enqueue(opCopy, op{bits(bytes)})
}

func (ctx *Context) copy(bytes float64) bool {
	if ctx.phase == 0 {
		ctx.start = ctx.p.Now()
		ctx.gpu = ctx.node.GPU.CopyOp(ctx.p, bytes)
		ctx.phase = 1
	}
	if !ctx.gpu.Step() {
		return false
	}
	ctx.recordCopy()
	return true
}

// recordCopy records the running operation, a transfer since ctx.start,
// as a copy span and a trace copy.
func (ctx *Context) recordCopy() {
	if ctx.cl.cp != nil {
		ctx.cl.cp.Copy(ctx.cpEnt, ctx.start, ctx.p.Now())
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCopy(ctx.Rank, ctx.p.Now()-ctx.start, ctx.start)
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
	ctx.enqueue(opCheckpoint, op{bits(stateBytes)})
}

func (ctx *Context) checkpoint(stateBytes float64) bool {
	if ctx.phase == 0 {
		ctx.start = ctx.p.Now()
		ctx.phase = 1
	}
	if !ctx.cl.inj.Checkpoint(ctx.p, ctx.node.Index, &ctx.fst, stateBytes) {
		return false
	}
	if ctx.cl.cp != nil {
		// Any time the hook consumed is fault-plane overhead: checkpoint
		// writes, crash outage settlement, redone work.
		ctx.cl.cp.Fault(ctx.cpEnt, ctx.start, ctx.p.Now())
	}
	return true
}

// Phase marks an iteration boundary for PARAVER-style trace chopping.
func (ctx *Context) Phase() {
	if ctx.cl.Tracer != nil {
		ctx.enqueue(opPhase, op{})
	}
}

// Send transmits bytes to rank dst.
func (ctx *Context) Send(dst, tag int, bytes float64) {
	ctx.enqueue(opSend, op{word(dst), word(tag), bits(bytes)})
}

// Recv blocks for a message from rank src.
func (ctx *Context) Recv(src, tag int) {
	ctx.enqueue(opRecv, op{word(src), word(tag)})
}

// Sendrecv exchanges with two peers.
func (ctx *Context) Sendrecv(dst, src, tag int, sendBytes, recvBytes float64) {
	ctx.enqueue(opSendrecv, op{word(dst), word(src), word(tag), bits(sendBytes), bits(recvBytes)})
}

// Allreduce combines bytes across all ranks.
func (ctx *Context) Allreduce(bytes float64) {
	ctx.enqueue(opAllreduce, op{bits(bytes)})
}

// Bcast broadcasts from root.
func (ctx *Context) Bcast(root int, bytes float64) {
	ctx.enqueue(opBcast, op{word(root), bits(bytes)})
}

// Alltoall exchanges bytesPerPair with every other rank.
func (ctx *Context) Alltoall(bytesPerPair float64) {
	ctx.enqueue(opAlltoall, op{bits(bytesPerPair)})
}

// Barrier synchronizes all ranks.
func (ctx *Context) Barrier() {
	ctx.enqueue(opBarrier, op{})
}

// mpiCall runs a queued MPI call. The call is built when it starts, not
// when it is queued, so collective tags are taken in the rank's program
// order and the communicator's call pool stays one call deep per rank.
func (ctx *Context) mpiCall(k opKind, o *op) bool {
	if ctx.phase == 0 {
		x := ctx.comm.Start(ctx.p, ctx.Rank)
		switch k {
		case opSend:
			x.Send(o.int(0), o.int(1), o.float(2))
		case opRecv:
			x.Recv(o.int(0), o.int(1))
		case opSendrecv:
			x.Sendrecv(o.int(0), o.int(1), o.int(2), o.float(3), o.float(4))
		case opAllreduce:
			x.Allreduce(o.float(0))
		case opBcast:
			x.Bcast(o.int(0), o.float(1))
		case opAlltoall:
			x.Alltoall(o.float(0))
		case opBarrier:
			x.Barrier()
		}
		ctx.call = x
		ctx.phase = 1
	}
	if !ctx.call.Step() {
		return false
	}
	ctx.call = nil
	return true
}

// creditFlops adds useful FLOPs to the cluster's and the job's counts.
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
	ctx.enqueue(opReadLocal, op{bits(bytes)})
}

func (ctx *Context) readLocal(bytes float64) bool {
	if ctx.phase == 0 {
		ctx.start = ctx.p.Now()
		ctx.p.WakeAfter(bytes / LocalStorageBandwidth)
		ctx.phase = 1
		return false
	}
	ctx.recordCopy()
	return true
}

// Fetch pulls bytes from the cluster's file server over the network (NFS
// reads: images, model weights), blocking until the data arrives. The
// cluster must be configured with FileServer.
func (ctx *Context) Fetch(bytes float64) {
	if !ctx.cl.Cfg.FileServer {
		panic("cluster: Fetch requires Config.FileServer")
	}
	ctx.enqueue(opFetch, op{bits(bytes)})
}

func (ctx *Context) fetch(bytes float64) bool {
	if ctx.phase == 0 {
		server := ctx.cl.Cfg.Nodes // last switch port
		_, arrival := ctx.cl.Net.Deliver(server, ctx.node.Index, bytes)
		ctx.start = ctx.p.Now()
		if ctx.cl.cp != nil {
			// Claim the Deliver booking before waiting: another rank's
			// send would overwrite the pending slot while this one waits.
			ctx.fetchID = ctx.cl.cp.FetchStart(ctx.cpEnt)
		}
		if arrival > ctx.start {
			ctx.cl.Eng.ResumeAt(arrival, ctx.p)
			ctx.phase = 1
			return false
		}
	}
	if ctx.cl.cp != nil {
		ctx.cl.cp.FetchDone(ctx.cpEnt, ctx.fetchID, ctx.start, ctx.p.Now())
	}
	if ctx.cl.Tracer != nil {
		ctx.cl.Tracer.RecordCopy(ctx.Rank, ctx.p.Now()-ctx.start, ctx.start)
	}
	return true
}
