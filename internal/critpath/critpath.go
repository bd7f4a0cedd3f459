// Package critpath records a compact causal event graph of a simulated run
// and extracts its critical path.
//
// The paper's contribution is attribution — explaining where time goes on
// SoC ARM clusters (CPU compute vs. shared-DRAM stalls vs. the 1G/10G
// interconnect) and what would change if one resource were faster.
// Aggregate metrics (internal/obs) cannot answer that: a cluster can be
// 90% network-busy while the network is never on the critical path. This
// package answers it causally.
//
// During a run the Recorder captures, per simulated process ("entity"),
// the sequence of attributed time spans — compute phases with their DRAM
// stall share, GPU kernels, host<->device copies, NIC drain windows,
// receive waits, gate waits on asynchronous kernels, NFS fetches, and
// checkpoint/crash settlement — plus one record per point-to-point
// message carrying the network's internal booking decomposition (queueing
// before service, wire service, latency, retransmission). Happens-before
// edges come from message send->deliver->recv chains (hooked into the mpi
// matching logic so the nth send and nth matching receive pair exactly),
// from async-kernel completion->wait pairs, and from spawn markers of
// asynchronous helper processes. Each value is passed in by the call that
// records it: the sender hands over its network booking, and a wait
// names the helper timeline it waits on.
//
// Post-run, Analyze walks backward from the last-finishing entity,
// following the edge that ended each wait, and charges every second of
// makespan to exactly one component bucket — so the blame breakdown sums
// to the makespan by construction. A forward worklist replay over the
// same graph (the dimemas recipe, but over causal spans rather than rank
// traces) produces what-if bounds: makespan under an infinitely fast
// network, without straggler stretch, without DRAM stalls. Per-message
// slack (arrival vs. receive post) aggregates into per-link headroom.
//
// Recording is opt-in (cluster.RecordCritPath) and strictly passive: it
// observes times the simulation already computed and never schedules,
// sleeps, or perturbs event order, so an instrumented run is bit-identical
// to an uninstrumented one. Everything happens on the single engine
// goroutine, so the record order — and therefore the analysis and the
// JSON sidecar — is deterministic across run-planes and GOMAXPROCS.
package critpath

import (
	"fmt"
	"sync"
)

// Component is one blame bucket of the makespan breakdown.
type Component uint8

const (
	// CompCPU is CPU compute time (the non-stalled share of a phase).
	CompCPU Component = iota
	// CompDRAMStall is time lost to shared-DRAM contention, on the CPU
	// (soc cost model MemStallSeconds) or inside a GPU kernel whose memory
	// time exceeds its compute time.
	CompDRAMStall
	// CompGPU is GPU kernel time net of DRAM stall.
	CompGPU
	// CompCopy is host<->device copy and local-read time.
	CompCopy
	// CompWire is NIC wire time: service (bytes/throughput) plus one-way
	// latency of cross-node messages.
	CompWire
	// CompQueue is switch/port queueing: the window between a message's
	// booking and its entering service, while healthy ports drain earlier
	// traffic.
	CompQueue
	// CompMemPath is the intra-node shared-memory message path.
	CompMemPath
	// CompBlocked is MPI blocked time that could not be causally chained
	// to a sender (defensive; zero on well-formed recordings) and, in the
	// per-rank aggregate view, all receive/gate waiting.
	CompBlocked
	// CompFault is fault-plane overhead: retransmit delays (timeout plus
	// the extra wire transit's queueing) and checkpoint/crash settlement.
	CompFault
	// CompIdle is unattributed time: gaps between recorded spans (process
	// startup, trailing DRAM drain after the last rank finishes).
	CompIdle

	numComponents
)

var componentNames = [numComponents]string{
	"cpu-compute",
	"dram-stall",
	"gpu-kernel",
	"copy",
	"nic-wire",
	"switch-queue",
	"mem-path",
	"mpi-blocked",
	"fault",
	"idle",
}

// String returns the bucket's sidecar key.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("component%d", int(c))
}

// Components lists every bucket name in declaration order — the canonical
// key set of Report.Blame.
func Components() []string {
	out := make([]string, numComponents)
	copy(out, componentNames[:])
	return out
}

// spanKind classifies one recorded time span.
type spanKind uint8

const (
	spanCompute  spanKind = iota // CPU phase; stall share in span.stall
	spanKernel                   // GPU kernel; stall share in span.stall
	spanCopy                     // host<->device copy / local read
	spanSend                     // NIC drain window of a send; ref = message
	spanRecv                     // receive wait; ref = message (recorded even when zero)
	spanGateWait                 // wait on an async kernel's gate; ref = aux entity
	spanSpawn                    // zero-duration marker: aux entity ref spawned here
	spanFetch                    // blocking NFS fetch; ref = message (no source entity)
	spanFault                    // checkpoint write / crash settlement
)

// span is one attributed interval on an entity's timeline. Spans are
// recorded in completion order and never overlap within an entity.
type span struct {
	kind    spanKind
	start   float64
	end     float64
	stall   float64 // DRAM-stall share of a compute/kernel span
	stretch float64 // straggler factor applied to a compute/kernel span (>= 1)
	seq     uint64  // engine sequence at record time (deterministic tie-break)
	ref     int32   // message index or aux entity index, -1 if none
}

// message is one point-to-point transfer with its booking decomposition:
// post <= start <= free <= arrival; [post,start] is queueing (or the
// retransmit tax), [start,free] wire service, [free,arrival] latency.
type message struct {
	srcEnt, dstEnt   int32 // srcEnt == -1 for fetches from the file server
	srcNode, dstNode int32
	bytes            float64
	post             float64
	start            float64
	free             float64
	arrival          float64
	recvPost         float64 // when the receive was posted; valid once matched
	retrans          bool
	matched          bool
}

// wireComponent returns the bucket a message's service+latency belongs to.
func (m *message) wireComponent() Component {
	if m.srcNode == m.dstNode {
		return CompMemPath
	}
	return CompWire
}

// preComponent returns the bucket of a message's pre-service window.
func (m *message) preComponent() Component {
	if m.retrans {
		return CompFault
	}
	return CompQueue
}

// entity is one recorded timeline: a rank process or an asynchronous
// kernel helper.
type entity struct {
	name   string
	node   int32
	parent int32   // owning entity of an aux helper; -1 for ranks
	origin float64 // spawn time of an aux helper
	spans  []span
}

// Recording storage is chunked: the per-event appends never copy old
// data (slice regrowth re-copies hot timelines several times over a run
// and dominated the recording tax), and the allocator clears exactly the
// chunks ultimately used. seal() flattens the chunks into the contiguous
// slices the analysis passes index.
const (
	msgChunkBits = 11
	msgChunkLen  = 1 << msgChunkBits
	msgChunkMask = msgChunkLen - 1

	spanChunkBits = 12
	spanChunkLen  = 1 << spanChunkBits
	spanChunkMask = spanChunkLen - 1
)

// recSpan is one arena entry: all entities share the recording arena
// (exact per-entity slices are carved out at seal time), so each span
// carries its timeline. It has no sequence stamp — arena order refines
// the engine's event order, so seal derives each span's seq from its
// arena index, saving eight bytes per recorded span.
type recSpan struct {
	start, end     float64
	stall, stretch float64
	ent, ref       int32
	kind           spanKind
}

// Chunks are pooled across runs: a batch run churns megabytes of
// recording storage per scenario, and the GC pressure from fresh
// allocations shows up as diffuse overhead across the whole engine loop.
// Slots past the recorded count are never read, so dirty reuse is safe
// and does not affect determinism.
var (
	msgChunkPool  = sync.Pool{New: func() any { return new([msgChunkLen]message) }}
	spanChunkPool = sync.Pool{New: func() any { return new([spanChunkLen]recSpan) }}
)

// Recorder accumulates the causal graph of one run. Every value it
// records arrives as an argument of the call that records it. All methods
// run on the engine goroutine; none of them schedules or sleeps.
type Recorder struct {
	ents []entity

	msgChunks []*[msgChunkLen]message
	nMsgs     int

	// The span arena appends through a cursor into the newest chunk:
	// addSpan stays under the inlining budget that way, which matters at
	// two calls per message. spanN indexes spanCur; the total count is
	// (len(spanChunks)-1)*spanChunkLen + spanN.
	spanChunks []*[spanChunkLen]recSpan
	spanCur    *[spanChunkLen]recSpan
	spanN      int

	sealed bool
	nSpans int       // fixed at seal time; live count is liveSpanCount
	msgs   []message // contiguous after seal; empty while recording
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	// spanN at the chunk boundary makes the first addSpan grow.
	return &Recorder{spanN: spanChunkLen}
}

// NewEntity registers a top-level timeline (a rank process) and returns
// its handle.
func (r *Recorder) NewEntity(name string, node int) int32 {
	r.ents = append(r.ents, entity{name: name, node: int32(node), parent: -1})
	return int32(len(r.ents) - 1)
}

// SpawnAux registers an asynchronous helper timeline under parent, spawned
// at now, and records the zero-duration spawn marker that anchors its
// start: the forward replay starts the helper's clock at the parent's
// clock here, and the backward walk returns from the helper to the parent
// at this point. A later GateWait on the helper's completion names the
// returned handle.
func (r *Recorder) SpawnAux(parent int32, name string, node int, now float64) int32 {
	aux := int32(len(r.ents))
	r.ents = append(r.ents, entity{name: name, node: int32(node), parent: parent, origin: now})
	*r.slot() = recSpan{kind: spanSpawn, start: now, end: now, ent: parent, ref: aux}
	return aux
}

// slot returns the next arena entry for the caller to fill. Returning a
// pointer (rather than taking a recSpan parameter) keeps the append
// inlinable — by-value 48-byte arguments blow the inlining budget, and
// this runs twice per message plus once per compute phase.
func (r *Recorder) slot() *recSpan {
	if r.spanN == spanChunkLen {
		r.growSpans()
	}
	s := &r.spanCur[r.spanN]
	r.spanN++
	return s
}

func (r *Recorder) growSpans() {
	c := spanChunkPool.Get().(*[spanChunkLen]recSpan)
	r.spanChunks = append(r.spanChunks, c)
	r.spanCur = c
	r.spanN = 0
}

// newMsg returns the id and the slot of the next message record for the
// caller to fill.
func (r *Recorder) newMsg() (int32, *message) {
	if r.nMsgs>>msgChunkBits == len(r.msgChunks) {
		r.msgChunks = append(r.msgChunks, msgChunkPool.Get().(*[msgChunkLen]message))
	}
	id := int32(r.nMsgs)
	r.nMsgs++
	return id, r.msgAt(id)
}

// msgAt resolves a message id while recording is live (post-seal code
// indexes the flattened r.msgs directly).
func (r *Recorder) msgAt(id int32) *message {
	return &r.msgChunks[id>>msgChunkBits][id&msgChunkMask]
}

// seal flattens the chunked recording stores into contiguous storage:
// r.msgs ordered by id, and exact-size per-entity span slices carved from
// one backing array. A single forward pass over the arena preserves each
// timeline's chronological span order. Idempotent; called by Analyze once
// recording is over.
func (r *Recorder) seal() {
	if r.sealed {
		return
	}
	r.sealed = true
	r.nSpans = r.liveSpanCount()
	r.msgs = make([]message, r.nMsgs)
	for i, c := range r.msgChunks {
		copy(r.msgs[i<<msgChunkBits:], c[:])
		msgChunkPool.Put(c)
	}
	r.msgChunks = nil

	counts := make([]int, len(r.ents))
	r.eachRecorded(func(t *recSpan, _ int) { counts[t.ent]++ })
	all := make([]span, 0, r.nSpans)
	for i := range r.ents {
		n := len(all)
		r.ents[i].spans = all[n : n : n+counts[i]]
		all = all[:n+counts[i]]
	}
	r.eachRecorded(func(t *recSpan, idx int) {
		e := &r.ents[t.ent]
		e.spans = append(e.spans, span{
			kind: t.kind, start: t.start, end: t.end,
			stall: t.stall, stretch: t.stretch,
			seq: uint64(idx), ref: t.ref,
		})
		// Receive completion is recorded only as a span: back-filling the
		// message here keeps the hot path from re-touching a by-then
		// cache-cold message record at recv time.
		if t.kind == spanRecv || t.kind == spanFetch {
			m := &r.msgs[t.ref]
			m.recvPost = t.start
			m.matched = true
		}
	})
	for _, c := range r.spanChunks {
		spanChunkPool.Put(c)
	}
	r.spanChunks = nil
}

// eachRecorded visits the recorded arena entries in append order, passing
// each entry's arena index (the span's sequence stamp).
func (r *Recorder) eachRecorded(f func(*recSpan, int)) {
	idx := 0
	for _, c := range r.spanChunks {
		n := len(c)
		if rest := r.nSpans - idx; rest < n {
			n = rest
		}
		for i := 0; i < n; i++ {
			f(&c[i], idx)
			idx++
		}
	}
}

// Compute records a CPU phase with its DRAM-stall share and straggler
// stretch factor (1 when healthy).
func (r *Recorder) Compute(ent int32, start, end, stall, stretch float64) {
	if end <= start {
		return
	}
	*r.slot() = recSpan{kind: spanCompute, start: start, end: end, stall: stall, stretch: stretch, ent: ent, ref: -1}
}

// Kernel records a GPU kernel launch (including launch overhead and any
// straggler stretch) with its memory-stall share.
func (r *Recorder) Kernel(ent int32, start, end, stall, stretch float64) {
	if end <= start {
		return
	}
	*r.slot() = recSpan{kind: spanKernel, start: start, end: end, stall: stall, stretch: stretch, ent: ent, ref: -1}
}

// Copy records a host<->device transfer or local read.
func (r *Recorder) Copy(ent int32, start, end float64) {
	if end <= start {
		return
	}
	*r.slot() = recSpan{kind: spanCopy, start: start, end: end, ent: ent, ref: -1}
}

// Fault records checkpoint/crash settlement time charged by the fault
// plane.
func (r *Recorder) Fault(ent int32, start, end float64) {
	if end <= start {
		return
	}
	*r.slot() = recSpan{kind: spanFault, start: start, end: end, ent: ent, ref: -1}
}

// GateWait records a wait on the completion of the asynchronous kernel
// whose helper timeline is aux. Zero-length waits are recorded too: the
// dependency still orders the forward replay even when the kernel had
// already finished.
func (r *Recorder) GateWait(ent, aux int32, start, end float64) {
	*r.slot() = recSpan{kind: spanGateWait, start: start, end: end, ent: ent, ref: aux}
}

// FetchStart records the network booking of an NFS fetch by ent from the
// file server's port: posted at post, in service over [start, free],
// arriving at arrival. The message has no source entity — the server is
// a passive port, so the chain ends at the booking, attributing queueing
// and wire time without jumping timelines. Call it when the fetch books,
// so message ids follow booking order.
func (r *Recorder) FetchStart(ent int32, server int, bytes, post, start, free, arrival float64) int32 {
	id, m := r.newMsg()
	*m = message{
		srcEnt: -1, dstEnt: ent,
		srcNode: int32(server), dstNode: r.ents[ent].node,
		bytes: bytes, post: post, start: start, free: free, arrival: arrival,
	}
	return id
}

// FetchDone records the blocking read around the booking FetchStart
// claimed, once the fetching process has slept through the arrival.
// The message's recvPost/matched fields are back-filled from this span
// at seal time.
func (r *Recorder) FetchDone(ent, id int32, start, end float64) {
	*r.slot() = recSpan{kind: spanFetch, start: start, end: end, ent: ent, ref: id}
}

// CommHooks adapts the recorder to one communicator's rank numbering: ent
// maps the communicator's ranks to recorder entities. Each communicator
// gets its own adapter because co-scheduled jobs have independent rank
// spaces. Matching state lives in the communicator itself — PathSend
// hands back a message id that mpi threads through its inbox/waiter
// structures to the completing receive, so the hot path pays no map
// operations here.
type CommHooks struct {
	r   *Recorder
	ent []int32
}

// CommHooks returns the mpi.PathRecorder adapter for a communicator whose
// rank i runs on entity ent[i].
func (r *Recorder) CommHooks(ent []int32) *CommHooks {
	return &CommHooks{r: r, ent: ent}
}

// PathSend implements mpi.PathRecorder: it records the message with the
// network booking the send made (of a retransmitted message, the second
// booking: the copy the receiver sees) and the sender's drain window, and
// returns the message id the communicator will hand to the matching
// PathRecv.
func (h *CommHooks) PathSend(src, dst, tag int, bytes, post, start, senderFree, arrival float64, retrans bool) int32 {
	r := h.r
	s, d := h.ent[src], h.ent[dst]
	id, m := r.newMsg()
	*m = message{
		srcEnt: s, dstEnt: d,
		srcNode: r.ents[s].node, dstNode: r.ents[d].node,
		bytes: bytes, post: post, start: start, free: senderFree, arrival: arrival,
		retrans: retrans,
	}
	*r.slot() = recSpan{kind: spanSend, start: post, end: senderFree, ent: s, ref: id}
	return id
}

// PathRecv implements mpi.PathRecorder: it records the receive wait —
// even a zero-length one, because the happens-before edge must survive
// for the forward replay. The message record is deliberately not touched
// here: by recv time its cache line is long cold, so marking it matched
// is deferred to seal's arena sweep.
func (h *CommHooks) PathRecv(dst int, id int32, post, end float64) {
	r := h.r
	if id < 0 {
		panic(fmt.Sprintf("critpath: receive on rank %d completed without a recorded send", dst))
	}
	*r.slot() = recSpan{kind: spanRecv, start: post, end: end, ent: h.ent[dst], ref: id}
}

// Entities returns the number of recorded timelines.
func (r *Recorder) Entities() int { return len(r.ents) }

// Messages returns the number of recorded point-to-point transfers.
func (r *Recorder) Messages() int { return r.nMsgs }

func (r *Recorder) liveSpanCount() int {
	if len(r.spanChunks) == 0 {
		return 0
	}
	return (len(r.spanChunks)-1)*spanChunkLen + r.spanN
}

// Spans returns the total recorded span count across entities.
func (r *Recorder) Spans() int {
	if r.sealed {
		return r.nSpans
	}
	return r.liveSpanCount()
}
