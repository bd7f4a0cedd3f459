// Package cluster assembles simulated systems out of the hardware models —
// the 2/4/6/8-node Jetson TX1 cluster with 1 or 10 GbE, the Cavium
// ThunderX server, the Xeon + GTX 980 pair — and runs per-rank workload
// bodies on them, producing the measurements the paper reports: runtime,
// energy, power, throughput, traffic, PMU counters, GPU metrics, and an
// Extrae-style trace.
package cluster

import (
	"encoding/json"
	"fmt"

	"clustersoc/internal/critpath"
	"clustersoc/internal/cuda"
	"clustersoc/internal/faults"
	"clustersoc/internal/mpi"
	"clustersoc/internal/network"
	"clustersoc/internal/obs"
	"clustersoc/internal/perf"
	"clustersoc/internal/power"
	"clustersoc/internal/sim"
	"clustersoc/internal/soc"
	"clustersoc/internal/trace"
)

// Config describes one system to simulate.
type Config struct {
	Name         string
	Nodes        int
	NodeType     soc.NodeConfig
	Network      network.Profile
	RanksPerNode int
	MemModel     cuda.MemModel
	// Traced enables Extrae-style trace recording for replay analysis.
	Traced bool
	// FileServer attaches an NFS-style storage node to the switch (the
	// paper's SSD file server); Context.Fetch pulls data from it over the
	// network, as the AI image pipeline does.
	FileServer bool
	// GPUDirect enables the what-if the paper rules out on the TX1 (Sec.
	// III-B.2): NIC DMA straight into device memory, skipping the
	// host-staging copies around every halo exchange.
	GPUDirect bool
	// Faults, when set and enabled, injects the plan's failures into the
	// run (internal/faults): stragglers, link degradation and flaps,
	// message loss, node crashes. The plan is part of the fingerprint (a
	// seeded plan is a different scenario), and a nil or zero plan leaves
	// the run bit-identical to a fault-free one.
	Faults *faults.Plan `json:",omitempty"`
}

// Fingerprint returns a canonical, deterministic encoding of the
// configuration: two Configs describing the same system fingerprint
// identically. Every field that influences a run participates — node
// counts, the full SoC model (including the GPU config behind the
// pointer), the NIC profile, rank density, the CUDA memory model, and
// the tracing/file-server/GPUDirect switches. The run-plane in
// internal/runner keys its memoization cache on it.
func (c Config) Fingerprint() string {
	// JSON marshalling walks the nested structs (soc.NodeConfig,
	// network.Profile, power.Spec, *soc.GPUConfig) by value in struct
	// field order, which is exactly the canonical form needed; none of
	// the hardware-model types contain maps, so the encoding is stable.
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("cluster: config not fingerprintable: %v", err))
	}
	return string(b)
}

// TX1Cluster returns the paper's proposed organization: n Jetson TX1
// boards on the given network.
func TX1Cluster(n int, prof network.Profile) Config {
	return Config{
		Name:         fmt.Sprintf("%d-node TX1 %s", n, prof.Name),
		Nodes:        n,
		NodeType:     soc.JetsonTX1(),
		Network:      prof,
		RanksPerNode: 1,
	}
}

// CaviumServer returns the single-node many-core comparison system with
// the given MPI process count.
func CaviumServer(ranks int) Config {
	return Config{
		Name:         "Cavium ThunderX server",
		Nodes:        1,
		NodeType:     soc.CaviumThunderX(),
		Network:      network.GigE, // irrelevant: all traffic is intra-node
		RanksPerNode: ranks,
	}
}

// GTX980Cluster returns the discrete-GPU comparison system: n Xeon-hosted
// GTX 980 nodes on 10 GbE.
func GTX980Cluster(n int) Config {
	return Config{
		Name:         fmt.Sprintf("%dx GTX 980", n),
		Nodes:        n,
		NodeType:     soc.XeonGTX980(),
		Network:      network.TenGigE,
		RanksPerNode: 1,
	}
}

// Node is one running node instance.
type Node struct {
	Index int
	Type  soc.NodeConfig
	DRAM  *sim.Pipe
	GPU   *cuda.Device // nil for CPU-only nodes
	PMU   perf.PMU
	Meter power.Meter

	cpuBusy     float64 // core-seconds
	cpuMemStall float64 // core-seconds stalled on L2 misses (soc cost model)
}

// Cluster is an assembled system ready to run workload bodies.
type Cluster struct {
	Cfg    Config
	Eng    *sim.Engine
	Net    *network.Network
	Nodes  []*Node
	Comm   *mpi.Comm
	Tracer *trace.Tracer

	ranksPerNode int
	flops        float64 // useful FLOPs accumulated by contexts

	reg      *obs.Registry  // nil unless Instrument attached observability
	procs    []*sim.Process // spawned rank processes, in spawn order
	comms    []*mpi.Comm    // every communicator (Comm + SpawnWith's), for auditing
	checking bool           // propagate match-time validation to new comms
	inj      *faults.Injector
	cp       *critpath.Recorder // nil unless RecordCritPath enabled recording
	jobs     int                // spawnOn calls so far, for entity naming
}

// New assembles a cluster from a config.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 || cfg.RanksPerNode < 1 {
		panic("cluster: need at least one node and one rank per node")
	}
	e := sim.NewEngine()
	netNodes := cfg.Nodes
	if cfg.FileServer {
		netNodes++ // the server takes the last port on the switch
	}
	nw := network.New(e, netNodes, cfg.Network)
	cl := &Cluster{Cfg: cfg, Eng: e, Net: nw, ranksPerNode: cfg.RanksPerNode}
	if cfg.Faults.Enabled() {
		cl.inj = faults.NewInjector(*cfg.Faults, e, nw, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		nt := cfg.NodeType
		node := &Node{
			Index: i,
			Type:  nt,
			DRAM:  sim.NewPipe(e, nt.DRAMBandwidth, 0),
		}
		node.Meter.Spec = nt.Power
		node.Meter.Spec.NICWatts += cfg.Network.PowerWatts
		if nt.GPU != nil {
			if cfg.GPUDirect {
				g := *nt.GPU
				g.GPUDirect = true
				nt.GPU = &g
			}
			var mem, pcie *sim.Pipe
			if nt.GPU.DedicatedMemory {
				mem = sim.NewPipe(e, nt.GPU.MemBandwidth, 0)
				pcie = sim.NewPipe(e, nt.GPU.PCIeBandwidth, 5e-6)
			} else {
				mem = node.DRAM // the TX1 property: CPU and GPU share DRAM
			}
			node.GPU = cuda.New(e, *nt.GPU, mem, pcie)
			node.GPU.Model = cfg.MemModel
		}
		cl.Nodes = append(cl.Nodes, node)
	}
	rankNode := make([]int, cfg.Nodes*cfg.RanksPerNode)
	for r := range rankNode {
		rankNode[r] = r / cfg.RanksPerNode
	}
	cl.Comm = mpi.NewComm(e, nw, rankNode)
	if cfg.Faults.LosesMessages() {
		cl.Comm.SetLossInjector(cl.inj)
	}
	cl.comms = append(cl.comms, cl.Comm)
	if cfg.Traced {
		cl.Tracer = trace.New(rankNode)
		cl.Comm.SetRecorder(cl.Tracer)
	}
	return cl
}

// Ranks returns the total MPI rank count.
func (cl *Cluster) Ranks() int { return cl.Cfg.Nodes * cl.ranksPerNode }

// Instrument attaches an observability registry to the cluster: live
// metrics (the network's message-size histogram) start recording, and
// Finish publishes the full simulated snapshot — engine diagnostics,
// per-port network accounting, per-node DRAM-arbitration stall and
// CPU/GPU busy time, per-rank blocked time, PMU counters, and GPU
// metrics. Instrument must be called before Spawn/Run.
//
// Instrument(nil) is a no-op. Instrumentation never alters the
// simulation: a run with and without a registry produces identical
// Result values, a property locked in by the runner determinism tests.
func (cl *Cluster) Instrument(reg *obs.Registry) {
	cl.reg = reg
	if reg == nil {
		return
	}
	cl.Net.Instrument(reg.Scope("network"))
}

// EnableChecking turns on match-time validation (simcheck) for every
// communicator of this cluster, current and future. Like Instrument it
// must be called before Spawn/Run, and like instrumentation it never
// alters the simulation — it only observes matches and collects
// diagnostics for the post-run audit.
func (cl *Cluster) EnableChecking() {
	cl.checking = true
	for _, c := range cl.comms {
		c.SetChecking(true)
	}
}

// Comms returns every communicator the cluster has created (the primary
// one first, then SpawnWith's in spawn order) for post-run auditing.
func (cl *Cluster) Comms() []*mpi.Comm { return cl.comms }

// RecordCritPath turns on causal event-graph recording (internal/critpath)
// for this run. Like Instrument it must be called before Spawn/Run, and
// like instrumentation it is strictly passive: the recorder only observes
// times the simulation already computed, so a recorded run stays
// bit-identical to an unrecorded one. Deliberately a method, not a Config
// field — recording is a property of one execution, not of the scenario,
// and must stay out of the fingerprint.
func (cl *Cluster) RecordCritPath() {
	if cl.cp != nil {
		return
	}
	cl.cp = critpath.NewRecorder()
}

// CritPath returns the recorder attached by RecordCritPath, or nil. The
// runner analyzes it after Finish.
func (cl *Cluster) CritPath() *critpath.Recorder { return cl.cp }

// Job tracks one spawned workload's own completion and FLOP tally, so
// co-scheduled workloads (the Table IV collocation) can report individual
// throughputs the way the paper's simultaneous hpl runs do.
type Job struct {
	FLOPs  float64
	Finish float64 // time the job's last rank returned
}

// Throughput returns the job's FLOP/s over its own duration.
func (j *Job) Throughput() float64 {
	if j.Finish <= 0 {
		return 0
	}
	return j.FLOPs / j.Finish
}

// Run spawns body once per rank, runs the simulation to completion, and
// gathers the measurements.
func (cl *Cluster) Run(body func(ctx *Context)) Result {
	cl.Spawn(body)
	return cl.Finish()
}

// Spawn launches body on every rank without running the engine — used to
// co-schedule two workloads on one cluster (the CPU+GPU collocation
// experiment of Table IV). The caller composes with more Spawn calls on
// sibling communicators, then calls Finish.
func (cl *Cluster) Spawn(body func(ctx *Context)) *Job {
	return cl.spawnOn(cl.Comm, cl.ranksPerNode, body)
}

// SpawnWith launches body on a fresh communicator with its own process
// density — the collocation experiment runs the GPU hpl (1 rank/node) and
// the CPU hpl (3 ranks/node) side by side on the same nodes, NICs, and
// DRAM.
func (cl *Cluster) SpawnWith(ranksPerNode int, body func(ctx *Context)) *Job {
	rankNode := make([]int, cl.Cfg.Nodes*ranksPerNode)
	for r := range rankNode {
		rankNode[r] = r / ranksPerNode
	}
	comm := mpi.NewComm(cl.Eng, cl.Net, rankNode)
	comm.SetChecking(cl.checking)
	if cl.Cfg.Faults.LosesMessages() {
		comm.SetLossInjector(cl.inj)
	}
	cl.comms = append(cl.comms, comm)
	return cl.spawnOn(comm, ranksPerNode, body)
}

func (cl *Cluster) spawnOn(comm *mpi.Comm, ranksPerNode int, body func(ctx *Context)) *Job {
	job := &Job{}
	var ents []int32
	if cl.cp != nil {
		// One recorded timeline per rank of this communicator. The primary
		// job keeps bare rank names; co-scheduled jobs are prefixed, since
		// their rank numbering restarts.
		prefix := ""
		if cl.jobs > 0 {
			prefix = fmt.Sprintf("job%d.", cl.jobs)
		}
		ents = make([]int32, comm.Size())
		for r := range ents {
			ents[r] = cl.cp.NewEntity(fmt.Sprintf("%srank%d", prefix, r), comm.Node(r))
		}
		comm.SetPathRecorder(cl.cp.CommHooks(ents))
	}
	cl.jobs++
	// One slab of ops and one of kinds hold every rank's queue.
	c := queueCap
	ops := make([]op, comm.Size()*c)
	kinds := make([]opKind, comm.Size()*c)
	for r := 0; r < comm.Size(); r++ {
		r := r
		ctx := &Context{cl: cl, Rank: r, node: cl.Nodes[r/ranksPerNode], comm: comm, job: job,
			q: ops[r*c : r*c : (r+1)*c], kinds: kinds[r*c : r*c : (r+1)*c]}
		ctx.run = ctx.step
		if ents != nil {
			ctx.cpEnt = ents[r]
		}
		p := cl.Eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Process) {
			ctx.p = p
			body(ctx)
			ctx.flush()
			if p.Now() > job.Finish {
				job.Finish = p.Now()
			}
		})
		cl.procs = append(cl.procs, p)
	}
	return job
}

// Finish runs the engine to completion and collects the results.
func (cl *Cluster) Finish() Result {
	runtime := cl.Eng.Run()
	res := Result{
		System:  cl.Cfg.Name,
		Network: cl.Cfg.Network.Name,
		Nodes:   cl.Cfg.Nodes,
		Ranks:   cl.Ranks(),
		Runtime: runtime,
		FLOPs:   cl.flops,
		Events:  cl.Eng.Events(),
	}
	for _, n := range cl.Nodes {
		n.Meter.AddCPU(n.cpuBusy)
		res.PMU.Add(n.PMU)
		res.CPUBusySeconds += n.cpuBusy
		res.DRAMBytes += n.DRAM.Bytes()
		ns := NodeStats{Index: n.Index, CPUBusySeconds: n.cpuBusy, DRAMBytes: n.DRAM.Bytes()}
		if n.GPU != nil {
			n.Meter.AddGPU(n.GPU.SMBusySeconds())
			n.Meter.AddDRAM(n.GPU.Metrics.DRAMBytes + 2*n.GPU.Metrics.CopyBytes)
			res.GPU.Add(n.GPU.Metrics)
			res.GPUBusySeconds += n.GPU.SMBusySeconds()
			ns.GPUBusySeconds = n.GPU.SMBusySeconds()
		}
		ns.EnergyJoules = n.Meter.Energy(runtime)
		res.EnergyJoules += ns.EnergyJoules
		// Count wire traffic at the receivers: every inter-node byte lands
		// on exactly one compute-node RX port, including file-server reads.
		ns.NetRxBytes = cl.Net.BytesReceived(n.Index)
		ns.NetTxBytes = cl.Net.BytesSent(n.Index)
		res.NetBytes += ns.NetRxBytes
		res.PerNode = append(res.PerNode, ns)
	}
	// The paper senses each system's AC socket; the switch is external to
	// those measurements, so cluster energy sums node meters only. The
	// switch draw is still reported separately.
	res.SwitchEnergyJoules = cl.Cfg.Network.SwitchWatts * runtime
	if runtime > 0 {
		res.AvgPowerWatts = res.EnergyJoules / runtime
		res.Throughput = res.FLOPs / runtime
		res.UnhaltedCPUCyclesPerSec = res.PMU.CPUCycles / runtime
	}
	if cl.Tracer != nil {
		cl.Tracer.Finish(runtime)
		res.Trace = &cl.Tracer.T
	}
	if cl.inj != nil {
		fs := cl.inj.Stats()
		for _, c := range cl.comms {
			for r := 0; r < c.Size(); r++ {
				fs.RetransmittedBytes += c.RetransmittedBytes(r)
			}
		}
		fs.LinkDownDelays, fs.LinkDownDelaySeconds, fs.FlapRestoresCancelled = cl.Net.FlapDelays()
		res.Faults = &fs
	}
	if cl.reg != nil {
		cl.publishMetrics(&res, runtime)
	}
	return res
}

// publishMetrics exports the run's simulated accounting into the
// attached registry. Everything published here derives from simulated
// quantities only — no wall clock — and iterates nodes, ranks, and ports
// in index order, so profiling the same scenario twice produces
// byte-identical snapshots.
func (cl *Cluster) publishMetrics(res *Result, runtime float64) {
	cl.Eng.PublishMetrics(cl.reg.Scope("sim"))
	cl.Net.PublishMetrics(cl.reg.Scope("network"))

	cs := cl.reg.Scope("cluster")
	cs.Gauge("runtime_s").Set(runtime)
	cs.Counter("flops").Add(res.FLOPs)
	cs.Counter("energy_j").Add(res.EnergyJoules)
	cs.Counter("net_bytes").Add(res.NetBytes)
	cs.Counter("dram_bytes").Add(res.DRAMBytes)
	cs.Counter("cpu_busy_s").Add(res.CPUBusySeconds)
	cs.Counter("gpu_busy_s").Add(res.GPUBusySeconds)
	if runtime > 0 {
		// The paper's CPU/GPU overlap question in two numbers: busy
		// fraction of all CPU cores vs all GPU SM time over the run.
		totalCores := float64(cl.Cfg.Nodes * cl.Cfg.NodeType.CPU.Cores)
		cs.Gauge("cpu_busy_frac").Set(res.CPUBusySeconds / (runtime * totalCores))
		if cl.Cfg.NodeType.GPU != nil {
			cs.Gauge("gpu_busy_frac").Set(res.GPUBusySeconds / (runtime * float64(cl.Cfg.Nodes)))
		}
	}

	for _, n := range cl.Nodes {
		ns := cs.Scope(fmt.Sprintf("node%d", n.Index))
		ns.Counter("dram_bytes").Add(n.DRAM.Bytes())
		ns.Counter("dram_stall_s").Add(n.DRAM.QueueWait())
		ns.Counter("cpu_busy_s").Add(n.cpuBusy)
		ns.Counter("cpu_mem_stall_s").Add(n.cpuMemStall)
		if n.GPU != nil {
			ns.Counter("gpu_busy_s").Add(n.GPU.SMBusySeconds())
		}
	}
	for _, p := range cl.procs {
		cs.Scope("rank").Counter(p.Name() + "_blocked_s").Add(p.BlockedSeconds())
	}
	if res.Faults != nil {
		fs := cl.reg.Scope("faults")
		fs.Gauge("straggler_nodes").Set(float64(res.Faults.StragglerNodes))
		fs.Gauge("derated_nodes").Set(float64(res.Faults.DeratedNodes))
		fs.Counter("crashes").Add(float64(res.Faults.Crashes))
		fs.Counter("crash_outage_s").Add(res.Faults.CrashOutageSeconds)
		fs.Counter("rework_s").Add(res.Faults.ReworkSeconds)
		fs.Counter("checkpoints").Add(float64(res.Faults.Checkpoints))
		fs.Counter("checkpoint_overhead_s").Add(res.Faults.CheckpointOverheadSeconds)
		fs.Counter("lost_messages").Add(float64(res.Faults.LostMessages))
		fs.Counter("retransmitted_bytes").Add(res.Faults.RetransmittedBytes)
		fs.Counter("link_down_delays").Add(float64(res.Faults.LinkDownDelays))
		fs.Counter("link_down_delay_s").Add(res.Faults.LinkDownDelaySeconds)
		fs.Counter("flap_restores_cancelled").Add(float64(res.Faults.FlapRestoresCancelled))
	}
	res.PMU.Publish(cl.reg.Scope("pmu"))
	res.GPU.Publish(cl.reg.Scope("gpu"))
}

// Result is one simulated run's measurements.
type Result struct {
	System  string
	Network string
	Nodes   int
	Ranks   int

	Runtime       float64
	EnergyJoules  float64
	AvgPowerWatts float64
	FLOPs         float64 // useful FLOPs credited by the workload
	Throughput    float64 // FLOPs / runtime

	// SwitchEnergyJoules is the switch's draw over the run, reported
	// separately because the paper's per-node AC probes exclude it.
	SwitchEnergyJoules float64

	NetBytes  float64 // bytes sent over the wire (cluster total)
	DRAMBytes float64 // bytes through node DRAM pipes (cluster total)

	CPUBusySeconds float64
	GPUBusySeconds float64

	UnhaltedCPUCyclesPerSec float64

	// Events is the number of simulation events the engine processed to
	// produce this run — the denominator of the simulator's events/s
	// throughput metric. A property of the simulator, not the modeled
	// system, so it stays out of JSON artifacts (like Profile on
	// runner.Result).
	Events uint64 `json:"-"`

	PMU   perf.PMU
	GPU   perf.GPUMetrics
	Trace *trace.Trace

	// Faults is the run's fault accounting, present only when a fault
	// plan was active — fault-free runs keep artifacts byte-identical.
	Faults *faults.Stats `json:"Faults,omitempty"`

	// PerNode breaks the cluster totals down, in node order — useful for
	// spotting imbalance (the paper's LB factor) directly in a run.
	PerNode []NodeStats
}

// NodeStats is one node's share of a run.
type NodeStats struct {
	Index          int
	CPUBusySeconds float64
	GPUBusySeconds float64
	DRAMBytes      float64
	NetRxBytes     float64
	NetTxBytes     float64
	EnergyJoules   float64
}

// MFLOPSPerWatt returns the paper's energy-efficiency metric.
func (r Result) MFLOPSPerWatt() float64 {
	return power.MFLOPSPerWatt(r.Throughput, r.AvgPowerWatts)
}

// NetTrafficRate returns average wire bytes/second over the run (the
// x-axis of Fig. 3).
func (r Result) NetTrafficRate() float64 {
	if r.Runtime == 0 {
		return 0
	}
	return r.NetBytes / r.Runtime
}

// DRAMTrafficRate returns average DRAM bytes/second (Fig. 3's y-axis).
func (r Result) DRAMTrafficRate() float64 {
	if r.Runtime == 0 {
		return 0
	}
	return r.DRAMBytes / r.Runtime
}
