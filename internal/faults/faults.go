// Package faults is the simulator's deterministic fault-injection plane.
//
// The paper's premise is that clusters of cheap commodity SoC boards can
// stand in for server-class machines — but commodity boards, PCIe-slot
// NICs, and unmanaged switches fail and straggle far more than the
// ThunderX-class servers they displace. This package lets a scenario
// declare that reality as a seeded Plan: straggler nodes (slowed compute),
// degraded and flapping links, message loss with an eager-retransmit
// latency tax, and whole-node crash+restart against a checkpoint/restart
// cost model (Young/Daly).
//
// Determinism contract: every random draw comes from a named sim.Stream
// derived from the plan seed (splitmix64, no math/rand), each cluster run
// builds its own Injector, and all draws happen inside the single-threaded
// simulation in event order. A seeded plan therefore produces bit-identical
// results across repeated runs and across the sequential and parallel
// run-planes, and the Plan participates in cluster.Config's fingerprint so
// the runner's memoization stays sound.
package faults

import (
	"math"
	"strconv"

	"clustersoc/internal/network"
	"clustersoc/internal/sim"
	"clustersoc/internal/units"
)

// DefaultRetransmitTimeout is the eager-retransmit delay charged for a
// lost message when the plan does not set one — the order of a commodity
// NIC driver's retransmit tick, far above the wire latencies modeled.
const DefaultRetransmitTimeout = 200 * units.Microsecond

// Plan declares what to inject. The zero value (and a nil *Plan) injects
// nothing: Enabled reports false and a cluster built with it is
// bit-identical to one built without a plan. All knobs are independent;
// any enabled subset composes.
type Plan struct {
	// Seed selects the plan's random universe. Two runs of the same plan
	// on the same scenario are bit-identical; changing only Seed redraws
	// which nodes straggle, when links flap, which messages are lost, and
	// when nodes crash.
	Seed uint64

	// StragglerFraction is the probability that a node is a straggler,
	// and StragglerFactor (> 1) the slowdown its compute pays — the
	// thermal-throttling / flaky-board effect testbed reports describe.
	StragglerFraction float64
	StragglerFactor   float64

	// DerateFraction is the probability that a node's link is degraded to
	// LinkDerate (in (0,1)) of profile throughput — a renegotiated or
	// half-duplex port.
	DerateFraction float64
	LinkDerate     float64

	// FlapMTBF, when > 0, gives every link an exponential flap clock with
	// that mean time between flaps; each flap lasts an exponential time
	// with mean FlapSeconds. During a flap the link admits no new service.
	FlapMTBF    float64
	FlapSeconds float64

	// MessageLossProb is the chance a cross-node message's first copy is
	// lost; the sender eagerly retransmits after RetransmitTimeout
	// (DefaultRetransmitTimeout if unset), paying a second wire transit.
	MessageLossProb   float64
	RetransmitTimeout float64

	// CrashMTBF, when > 0, gives every node an exponential crash clock.
	// A crash costs RestartSeconds of outage plus redoing all work since
	// the rank's last checkpoint. Checkpoints are taken at workload
	// checkpoint hooks once CheckpointInterval seconds have passed since
	// the previous one (0 = never checkpoint: every crash reworks from
	// the start), each costing CheckpointSeconds plus
	// stateBytes/CheckpointBandwidth (if a bandwidth is set).
	CrashMTBF           float64
	RestartSeconds      float64
	CheckpointInterval  float64
	CheckpointSeconds   float64
	CheckpointBandwidth float64
}

// Enabled reports whether the plan injects anything. Nil-safe.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.stragglers() || p.derates() ||
		p.FlapMTBF > 0 || p.MessageLossProb > 0 || p.CrashMTBF > 0
}

func (p *Plan) stragglers() bool { return p.StragglerFraction > 0 && p.StragglerFactor > 1 }
func (p *Plan) derates() bool    { return p.DerateFraction > 0 && p.LinkDerate > 0 && p.LinkDerate < 1 }

// LosesMessages reports whether the plan can lose messages (the simcheck
// audit uses it to flag retransmissions on a lossless plan).
func (p *Plan) LosesMessages() bool { return p != nil && p.MessageLossProb > 0 }

// Timeout returns the eager-retransmit delay (mpi.LossInjector).
func (p *Plan) timeout() float64 {
	if p.RetransmitTimeout > 0 {
		return p.RetransmitTimeout
	}
	return DefaultRetransmitTimeout
}

// OptimalInterval returns the Young/Daly first-order optimum for the
// checkpoint interval, sqrt(2 · C · MTBF), given the per-checkpoint cost
// C and the mean time between failures.
func OptimalInterval(checkpointCost, mtbf float64) float64 {
	return math.Sqrt(2 * checkpointCost * mtbf)
}

// Stats is a run's fault accounting, attached to cluster.Result (omitted
// from JSON artifacts when no plan was active, preserving byte-identical
// golden captures).
type Stats struct {
	StragglerNodes int // nodes drawn as stragglers
	DeratedNodes   int // nodes with degraded links

	Crashes            uint64  // node crashes observed by the workload
	CrashOutageSeconds float64 // restart outage paid across ranks
	ReworkSeconds      float64 // lost work redone across ranks

	Checkpoints               uint64  // checkpoints taken across ranks
	CheckpointOverheadSeconds float64 // time spent taking them

	LostMessages       uint64  // messages whose first wire copy was lost
	RetransmittedBytes float64 // extra wire bytes the retransmits carried

	LinkDownDelays        uint64  // bookings pushed past a down window
	LinkDownDelaySeconds  float64 // total service-start delay they paid
	FlapRestoresCancelled uint64  // flap recoveries superseded by a crash
}

// RankState is one rank's resilience state: how much productive work it
// has done since its last checkpoint (or crash settlement), when its
// last hook returned, and how many of its node's crashes it has already
// paid for. The zero value is correct for a rank starting at t=0 with an
// initial checkpoint.
//
// Rework is accounted in productive seconds, not wall time: the time a
// rank spends paying a crash penalty is not work that a later crash can
// destroy again. Accounting it in wall time compounds — with no
// checkpoints every simulated second is eventually re-paid as rework and
// the job (realistically, but uselessly) never finishes — while
// productive-time rework telescopes to at most the fault-free runtime.
type RankState struct {
	work        float64 // uncheckpointed productive seconds
	lastSeen    float64 // time the previous hook returned
	lastBlocked float64 // the rank's blocked-seconds at that hook
	crashIdx    int

	// The hook in progress: where it is, the time it was called (crashes
	// up to then are settled), and what the wait it is in costs.
	phase  uint8
	hookAt float64
	rework float64 // redone work of the crash being settled
	cost   float64 // the checkpoint write's cost
}

// The phases of a Checkpoint hook.
const (
	hookIdle   uint8 = iota // not in a hook
	hookSettle              // waiting out a crash's outage and rework
	hookWrite               // waiting out the checkpoint write
)

// nodeCrash is one node's lazily materialized crash history: times is the
// strictly increasing sequence of crash instants drawn so far, reported
// counts how many of them have been charged to Stats (the first observing
// rank charges a crash; its node-mates redo work but don't recount it).
type nodeCrash struct {
	stream   *sim.Stream
	times    []float64
	reported int
}

// ensureUntil materializes crash times through t. Times strictly increase
// by at least the restart outage, so the loop terminates.
func (nc *nodeCrash) ensureUntil(t, mtbf, restart float64) {
	for {
		var last float64
		if n := len(nc.times); n > 0 {
			last = nc.times[n-1]
		}
		if last > t {
			return
		}
		nc.times = append(nc.times, last+restart+nc.stream.Exp(mtbf))
	}
}

// flapSource generates one link's flap windows on demand
// (network.FlapSource): exponential up-time, exponential down-time,
// windows strictly ordered and non-overlapping. Never exhausts.
type flapSource struct {
	s         *sim.Stream
	cursor    float64
	mtbf, dur float64
}

func (fs *flapSource) Next() (start, end float64) {
	start = fs.cursor + fs.s.Exp(fs.mtbf)
	end = start + fs.s.Exp(fs.dur)
	fs.cursor = end
	return start, end
}

// Injector is a plan instantiated against one cluster run: streams drawn,
// straggler/derate coins flipped, link faults installed. Build one per
// cluster (cluster.New does); sharing across runs would entangle their
// random sequences. All methods are nil-safe no-ops so fault-free paths
// need no branching at call sites.
type Injector struct {
	plan Plan
	eng  *sim.Engine
	nw   *network.Network

	factor []float64 // per-node compute multiplier (1 = healthy)
	loss   *sim.Stream
	crash  []nodeCrash

	stats Stats
}

// NewInjector draws the plan's static choices (which nodes straggle,
// which links degrade), installs link fault state into the network, and
// prepares the dynamic streams. nodes is the compute-node count — a file
// server port, if any, stays fault-free.
func NewInjector(plan Plan, eng *sim.Engine, nw *network.Network, nodes int) *Injector {
	in := &Injector{plan: plan, eng: eng, nw: nw, factor: make([]float64, nodes)}
	straggle := sim.NewStream(plan.Seed, "faults/straggler")
	derate := sim.NewStream(plan.Seed, "faults/derate")
	for i := 0; i < nodes; i++ {
		in.factor[i] = 1
		if plan.stragglers() && straggle.Float64() < plan.StragglerFraction {
			in.factor[i] = plan.StragglerFactor
			in.stats.StragglerNodes++
		}
		d := 0.0
		if plan.derates() && derate.Float64() < plan.DerateFraction {
			d = plan.LinkDerate
			in.stats.DeratedNodes++
		}
		var fs network.FlapSource
		if plan.FlapMTBF > 0 {
			fs = &flapSource{
				s:    sim.NewStream(plan.Seed, "faults/flap/"+strconv.Itoa(i)),
				mtbf: plan.FlapMTBF,
				dur:  math.Max(plan.FlapSeconds, 1*units.Microsecond),
			}
		}
		if d > 0 || fs != nil {
			nw.InjectLinkFaults(i, d, fs)
		}
	}
	if plan.MessageLossProb > 0 {
		in.loss = sim.NewStream(plan.Seed, "faults/loss")
	}
	if plan.CrashMTBF > 0 {
		in.crash = make([]nodeCrash, nodes)
		for i := range in.crash {
			in.crash[i].stream = sim.NewStream(plan.Seed, "faults/crash/"+strconv.Itoa(i))
		}
	}
	return in
}

// ComputeFactor returns the node's compute-slowdown multiplier (1 =
// healthy). Nil-safe.
func (in *Injector) ComputeFactor(node int) float64 {
	if in == nil || node >= len(in.factor) {
		return 1
	}
	return in.factor[node]
}

// Lose implements mpi.LossInjector: one deterministic coin per cross-node
// message, drawn in Send order inside the single-threaded engine.
func (in *Injector) Lose(src, dst int, bytes float64) bool {
	if in == nil || in.loss == nil {
		return false
	}
	if in.loss.Float64() < in.plan.MessageLossProb {
		in.stats.LostMessages++
		return true
	}
	return false
}

// Timeout implements mpi.LossInjector.
func (in *Injector) Timeout() float64 { return in.plan.timeout() }

// Checkpoint is the workload resilience hook, called at natural iteration
// boundaries with the rank's restorable state size. It settles any crash
// of the rank's node since the rank's last hook — the rank pays the
// restart outage plus redoing the work since its last checkpoint, and the
// first rank to observe a crash takes the node's link down for the
// restart window (cancelling a pending flap recovery: the NIC reset
// supersedes it) — then takes a checkpoint if the plan's interval has
// elapsed.
//
// It is a step of p (sim.Process.Await): each settlement and the
// checkpoint write wait by arranging p's wake-up and returning false, and
// the caller calls it again at that wake-up until it returns true. The
// hook's progress lives in st. Nil-safe: with no injector or no crash
// model it returns true at once.
func (in *Injector) Checkpoint(p *sim.Process, node int, st *RankState, stateBytes float64) bool {
	if in == nil || in.crash == nil {
		return true
	}
	nc := &in.crash[node]
	switch st.phase {
	case hookIdle:
		now := p.Now()
		// Productive work excludes time the rank spent blocked on peers: a
		// neighbour's crash penalty stalls this rank's receives, and
		// counting that stall as work to be redone would let penalties
		// compound across ranks through the communication graph.
		if w := (now - st.lastSeen) - (p.BlockedSeconds() - st.lastBlocked); w > 0 {
			st.work += w
		}
		nc.ensureUntil(now, in.plan.CrashMTBF, in.plan.RestartSeconds)
		st.hookAt = now
	case hookSettle:
		in.stats.CrashOutageSeconds += in.plan.RestartSeconds
		in.stats.ReworkSeconds += st.rework
	case hookWrite:
		st.work = 0
		in.stats.Checkpoints++
		in.stats.CheckpointOverheadSeconds += st.cost
		return in.hookDone(p, st)
	}
	if st.crashIdx < len(nc.times) && nc.times[st.crashIdx] <= st.hookAt {
		c := nc.times[st.crashIdx]
		st.crashIdx++
		if st.crashIdx > nc.reported {
			nc.reported = st.crashIdx
			in.stats.Crashes++
			in.nw.ForceDown(node, c, c+in.plan.RestartSeconds)
		}
		// The crash destroys the rank's uncheckpointed productive work;
		// the settlement redoes it and re-establishes state at the hook,
		// so successive settlements telescope instead of compounding.
		st.rework = st.work
		st.work = 0
		p.WakeAfter(in.plan.RestartSeconds + st.rework)
		st.phase = hookSettle
		return false
	}
	// Checkpoint once the plan's interval of productive work has
	// accumulated — "every N seconds of compute", the way applications
	// time their checkpoints.
	if iv := in.plan.CheckpointInterval; iv > 0 && st.work >= iv {
		st.cost = in.plan.CheckpointSeconds
		if bw := in.plan.CheckpointBandwidth; bw > 0 {
			st.cost += stateBytes / bw
		}
		p.WakeAfter(st.cost)
		st.phase = hookWrite
		return false
	}
	return in.hookDone(p, st)
}

// hookDone ends a Checkpoint hook at the current time.
func (in *Injector) hookDone(p *sim.Process, st *RankState) bool {
	st.lastSeen = p.Now()
	st.lastBlocked = p.BlockedSeconds()
	st.phase = hookIdle
	return true
}

// Stats returns the injector's own accounting. The cluster completes it
// with the communicator's retransmitted bytes and the network's link-down
// delay totals before attaching it to the Result.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}
