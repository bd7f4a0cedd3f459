// Package mpi provides a message-passing layer over the simulated network:
// blocking point-to-point operations with tag matching plus the collective
// algorithms the paper's workloads exercise (binomial broadcast and reduce,
// recursive-doubling allreduce, ring allgather, pairwise alltoall).
//
// Every call is a per-rank list of sends and receives: Send, Recv and
// Sendrecv build one of one or two steps, and a collective builds the
// calling rank's whole schedule. One executor runs the list as the rank
// process's sim.Process.Await step, on the event loop, so a rank's
// goroutine is switched in once per call, not once per message.
//
// Sends are eager: a sender blocks only until its NIC has drained the
// message, never on the receiver posting — matching the rendezvous-free
// behaviour of small-to-medium MPI messages and keeping workload models
// deadlock-free by construction.
package mpi

import (
	"fmt"
	"sort"

	"clustersoc/internal/network"
	"clustersoc/internal/sim"
)

// collTagBase namespaces internally generated collective tags away from
// user point-to-point tags.
const collTagBase = 1 << 20

// inboxMsg is one eagerly delivered message that no receive has claimed
// yet, tagged with the (src, tag) key a receive matches on. The size rides
// along so receives that declare an expected size (Sendrecv's recvBytes)
// can be validated against what the peer sent; pathID is the
// PathRecorder's message handle (meaningful only while a recorder is
// attached), threaded through the inbox so the matching receive can report
// which send it completed without a second FIFO.
type inboxMsg struct {
	src, tag int
	arrival  float64
	bytes    float64
	pathID   int32
}

// recvWaiter is a rank's blocked receive, or the zero value (p == nil)
// when the rank has none posted. expect is the byte count the receive
// declared, or a negative value when it posted no expectation (plain Recv
// carries no size).
type recvWaiter struct {
	p        *sim.Process
	src, tag int
	expect   float64
}

// Recorder observes point-to-point traffic; internal/trace implements it
// to build replayable execution traces. Collectives are recorded as the
// p2p pattern they decompose into.
type Recorder interface {
	RecordSend(rank, peer, tag int, bytes, start, end float64)
	RecordRecv(rank, peer, tag int, start, end float64)
}

// PathRecorder observes the causal structure of point-to-point traffic at
// a finer grain than Recorder: sends carry the full NIC booking (post,
// drain, arrival, whether the wire copy was a retransmit) and every
// receive completion is reported even when it did not block, because a
// zero-wait receive is still a happens-before edge that a critical-path
// replay must honour. PathSend returns a message handle the communicator
// threads through its own matching structures and hands back to PathRecv,
// so the recorder needs no FIFO of its own. internal/critpath implements
// it.
type PathRecorder interface {
	PathSend(src, dst, tag int, bytes, post, senderFree, arrival float64, retrans bool) int32
	PathRecv(dst int, id int32, post, end float64)
}

// LossInjector decides, per cross-node message, whether the first copy is
// lost on the wire; internal/faults implements it with a deterministic
// per-plan stream. Timeout is the eager-retransmit delay the sender pays
// before the second copy leaves the NIC.
type LossInjector interface {
	Lose(src, dst int, bytes float64) bool
	Timeout() float64
}

// Comm is a communicator over a set of ranks placed on network nodes.
type Comm struct {
	eng      *sim.Engine
	nw       *network.Network
	rankNode []int
	rec      Recorder
	pr       PathRecorder
	// pendingPath carries the PathRecorder handle of a send that matched a
	// blocked receiver, from the send to the receiver's resumption. One
	// slot per rank suffices: ranks are blocking processes, so each has at
	// most one receive in flight (guarded by a panic in post).
	pendingPath []int32

	// boxes holds each rank's unclaimed messages in arrival order; a
	// receive takes the first entry with its (src, tag), so messages on
	// one key still leave in send order. Inboxes stay a few entries deep,
	// so the scan costs less than hashing the key.
	boxes [][]inboxMsg
	// waiters holds each rank's one blocked receive. One slot per rank
	// suffices for the same reason as pendingPath; posting a second
	// receive while one is blocked panics in take.
	waiters []recvWaiter
	cseq    []int   // per-rank collective sequence number
	idle    []*call // finished calls, reused by the next ones

	sentBytes []float64 // per-rank bytes passed to Send (incl. intra-node)
	sentMsgs  []uint64
	recvMsgs  []uint64 // per-rank completed receives

	// loss, when non-nil, is the fault plane's message-loss model. A lost
	// message costs a second wire transit (booked after the retransmit
	// timeout) that is charged to retransBytes, not sentBytes — the
	// payload is sent once, the wire carries it twice.
	loss         LossInjector
	retransBytes []float64 // per-rank retransmitted bytes (wire copies beyond the first)
	retransMsgs  []uint64  // per-rank retransmitted messages

	// checking enables the simcheck assertions that have a natural home
	// at match time (declared receive sizes vs the peer's send size).
	// Mismatches are collected, not panicked, so Audit can report every
	// violation of a run with rank/tag/src diagnostics.
	checking   bool
	violations []string
}

// NewComm creates a communicator with one rank per entry of rankNode;
// rankNode[i] is the network node hosting rank i.
func NewComm(e *sim.Engine, nw *network.Network, rankNode []int) *Comm {
	n := len(rankNode)
	c := &Comm{
		eng:       e,
		nw:        nw,
		rankNode:  append([]int(nil), rankNode...),
		boxes:     make([][]inboxMsg, n),
		waiters:   make([]recvWaiter, n),
		cseq:      make([]int, n),
		sentBytes: make([]float64, n),
		sentMsgs:  make([]uint64, n),
		recvMsgs:  make([]uint64, n),

		retransBytes: make([]float64, n),
		retransMsgs:  make([]uint64, n),
	}
	return c
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.rankNode) }

// Node returns the network node hosting a rank.
func (c *Comm) Node(rank int) int { return c.rankNode[rank] }

// Network returns the underlying interconnect.
func (c *Comm) Network() *network.Network { return c.nw }

// SentBytes returns the bytes rank has sent so far.
func (c *Comm) SentBytes(rank int) float64 { return c.sentBytes[rank] }

// Messages returns the number of messages rank has sent.
func (c *Comm) Messages(rank int) uint64 { return c.sentMsgs[rank] }

// Receives returns the number of messages rank has received.
func (c *Comm) Receives(rank int) uint64 { return c.recvMsgs[rank] }

func (c *Comm) check(rank int) {
	if rank < 0 || rank >= len(c.rankNode) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(c.rankNode)))
	}
}

// SetRecorder attaches a trace recorder (nil to detach).
func (c *Comm) SetRecorder(r Recorder) { c.rec = r }

// SetPathRecorder attaches a causal-path recorder (nil to detach). The
// hot path pays one nil check per send and receive when detached.
func (c *Comm) SetPathRecorder(pr PathRecorder) {
	c.pr = pr
	if pr != nil && c.pendingPath == nil {
		c.pendingPath = make([]int32, len(c.rankNode))
		for i := range c.pendingPath {
			c.pendingPath[i] = -1
		}
	}
}

// SetLossInjector attaches the fault plane's message-loss model (nil to
// detach). Only cross-node messages can be lost — the intra-node
// shared-memory path is a memcpy, not a wire.
func (c *Comm) SetLossInjector(li LossInjector) { c.loss = li }

// RetransmittedBytes returns the extra wire bytes rank paid to retransmit
// lost messages. These bytes crossed the fabric but are not in SentBytes:
// flow-conservation audits must add them to the send side.
func (c *Comm) RetransmittedBytes(rank int) float64 { return c.retransBytes[rank] }

// Retransmissions returns the number of messages rank had to retransmit.
func (c *Comm) Retransmissions(rank int) uint64 { return c.retransMsgs[rank] }

// SetChecking toggles match-time validation: receives that declare an
// expected size (Sendrecv) are checked against the matched message's
// actual size, and mismatches are collected for Audit. Checking never
// changes message timing — it only observes matches.
func (c *Comm) SetChecking(on bool) { c.checking = on }

// Send transmits bytes from src to dst with a tag, blocking p (the process
// running rank src) until the local NIC has drained the message.
func (c *Comm) Send(p *sim.Process, src, dst, tag int, bytes float64) {
	c.check(src)
	c.check(dst)
	x := c.begin(src)
	x.send(dst, tag, bytes)
	x.run(p)
}

// Recv blocks p (the process running rank dst) until a message from src
// with the tag has fully arrived.
func (c *Comm) Recv(p *sim.Process, dst, src, tag int) {
	c.check(src)
	c.check(dst)
	x := c.begin(dst)
	x.recv(src, tag, -1)
	x.run(p)
}

// Sendrecv sends to dst and receives from src (both with the same tag), as
// one deadlock-free exchange. recvBytes declares the expected size of the
// incoming message; under checking a mismatch with the peer's actual send
// size is reported by Audit.
func (c *Comm) Sendrecv(p *sim.Process, me, dst, src, tag int, sendBytes, recvBytes float64) {
	c.check(me)
	c.check(dst)
	c.check(src)
	x := c.begin(me)
	x.send(dst, tag, sendBytes)
	x.recv(src, tag, recvBytes)
	x.run(p)
}

// op is one point-to-point step of a call's schedule: a send of bytes to
// peer, or (send false) a receive from peer that declares bytes as the
// expected size, or a negative bytes for no expectation (plain Recv
// carries no size). Under checking a declared size is asserted against
// the matched message, so an asymmetric-exchange miscount fails the audit
// loudly instead of silently corrupting timings.
type op struct {
	send  bool
	peer  int
	tag   int
	bytes float64
}

// The phases of the op a call is executing.
const (
	opStart   uint8 = iota // not yet begun
	opWait                 // waiting for its NIC to drain it, or for its message to arrive
	opMatched              // receive posted as the rank's waiter; waiting for a send
)

// call is one rank's MPI call in progress: the ordered sends and receives
// a point-to-point call or a collective decomposes into, and the state of
// the op being executed. It runs as the rank process's Await step, so a
// collective switches the process in once, not once per message. Finished
// calls return to the communicator's pool, so a steady state of calls
// allocates nothing.
type call struct {
	c      *Comm
	p      *sim.Process
	rank   int
	ops    []op
	pc     int         // index of the op being executed
	phase  uint8       // how far ops[pc] has got
	start  float64     // when ops[pc] began
	pathID int32       // PathRecorder handle of the message ops[pc] receives
	step   func() bool // advance, bound once
}

// begin takes an idle call for rank from the pool.
func (c *Comm) begin(rank int) *call {
	var x *call
	if n := len(c.idle); n > 0 {
		x = c.idle[n-1]
		c.idle = c.idle[:n-1]
	} else {
		x = &call{c: c}
		x.step = x.advance
	}
	x.rank = rank
	x.ops = x.ops[:0]
	x.pc = 0
	x.phase = opStart
	return x
}

// send appends a send of bytes to dst.
func (x *call) send(dst, tag int, bytes float64) {
	x.ops = append(x.ops, op{send: true, peer: dst, tag: tag, bytes: bytes})
}

// recv appends a receive from src declaring expect bytes (negative: none).
func (x *call) recv(src, tag int, expect float64) {
	x.ops = append(x.ops, op{peer: src, tag: tag, bytes: expect})
}

// sendrecv appends a send to dst followed by a receive from src.
func (x *call) sendrecv(dst, src, tag int, sendBytes, recvBytes float64) {
	x.send(dst, tag, sendBytes)
	x.recv(src, tag, recvBytes)
}

// run executes the schedule as p's Await step, blocking p until its last
// op completes, and returns the call to the pool.
func (x *call) run(p *sim.Process) {
	x.p = p
	p.Await(x.step)
	x.p = nil
	x.c.idle = append(x.c.idle, x)
}

// advance executes ops from pc on until one has to wait for a wake-up,
// and reports whether the schedule is done. It pushes the same events and
// makes the same recorder calls, in the same order, as a process blocking
// through the ops one by one: a send waits for its NIC to drain, a
// receive for its message's arrival, or, with no match in the inbox,
// blocked until a send matches it.
func (x *call) advance() bool {
	c, now := x.c, x.p.Now()
	for ; x.pc < len(x.ops); x.pc++ {
		o := &x.ops[x.pc]
		switch x.phase {
		case opStart:
			x.start = now
			if o.send {
				if free := c.post(x.rank, o.peer, o.tag, o.bytes, now); free > now {
					c.eng.ResumeAt(free, x.p)
					x.phase = opWait
					return false
				}
			} else if !x.take(o, now) {
				return false
			}
		case opMatched:
			if c.pr != nil {
				x.pathID = c.pendingPath[x.rank]
				c.pendingPath[x.rank] = -1
			}
		}
		x.phase = opStart
		if o.send {
			if c.rec != nil {
				c.rec.RecordSend(x.rank, o.peer, o.tag, o.bytes, x.start, now)
			}
			continue
		}
		c.recvMsgs[x.rank]++
		if c.pr != nil {
			c.pr.PathRecv(x.rank, x.pathID, x.start, now)
		}
		if c.rec != nil {
			c.rec.RecordRecv(x.rank, o.peer, o.tag, x.start, now)
		}
	}
	return true
}

// post books a send of bytes from src to dst at now: the NIC booking (a
// second one when the loss model drops the first copy), the traffic
// counters, the path record, and delivery to dst's blocked receive or to
// its inbox. It returns when the sender's NIC has drained the message.
func (c *Comm) post(src, dst, tag int, bytes, now float64) (senderFree float64) {
	srcNode, dstNode := c.rankNode[src], c.rankNode[dst]
	senderFree, arrival := c.nw.Deliver(srcNode, dstNode, bytes)
	c.sentBytes[src] += bytes
	c.sentMsgs[src]++
	retrans := false
	if c.loss != nil && srcNode != dstNode && c.loss.Lose(src, dst, bytes) {
		// Eager retransmit: the first copy is lost, so the payload makes a
		// second wire transit that cannot start before the sender's timeout
		// fires. The receiver sees only the retransmitted copy's arrival,
		// and the sender's buffer is not free until the second copy drains.
		senderFree, arrival = c.nw.DeliverAfter(srcNode, dstNode, bytes, senderFree+c.loss.Timeout())
		c.retransBytes[src] += bytes
		c.retransMsgs[src]++
		retrans = true
	}
	// The path recorder must see the message before any matched waiter can
	// resume and report its receive completion.
	pathID := int32(-1)
	if c.pr != nil {
		pathID = c.pr.PathSend(src, dst, tag, bytes, now, senderFree, arrival, retrans)
	}
	if w := c.waiters[dst]; w.p != nil && w.src == src && w.tag == tag {
		if c.pr != nil {
			if c.pendingPath[dst] >= 0 {
				panic(fmt.Sprintf("mpi: rank %d has two matched receives in flight", dst))
			}
			c.pendingPath[dst] = pathID
		}
		c.waiters[dst] = recvWaiter{} // don't pin the process
		c.mismatch(dst, src, tag, w.expect, bytes)
		c.eng.ResumeAt(arrival, w.p)
	} else {
		c.boxes[dst] = append(c.boxes[dst], inboxMsg{src: src, tag: tag, arrival: arrival, bytes: bytes, pathID: pathID})
	}
	return senderFree
}

// take posts the receive o at now. It takes the first inbox message with
// o's (peer, tag) and reports whether that message has already arrived;
// otherwise it arranges the wake-up: the message's arrival, or, with no
// match in the inbox, the rank's blocked-receive slot, which the
// matching send resumes.
func (x *call) take(o *op, now float64) bool {
	c, dst := x.c, x.rank
	x.pathID = -1
	box := c.boxes[dst]
	i := 0
	for i < len(box) && (box[i].src != o.peer || box[i].tag != o.tag) {
		i++
	}
	if i < len(box) {
		m := box[i]
		c.boxes[dst] = append(box[:i], box[i+1:]...)
		c.mismatch(dst, o.peer, o.tag, o.bytes, m.bytes)
		x.pathID = m.pathID
		if m.arrival > now {
			c.eng.ResumeAt(m.arrival, x.p)
			x.phase = opWait
			return false
		}
		return true
	}
	if w := c.waiters[dst]; w.p != nil {
		panic(fmt.Sprintf("mpi: rank %d posted a receive from rank %d tag %d while one from rank %d tag %d is blocked",
			dst, o.peer, o.tag, w.src, w.tag))
	}
	c.waiters[dst] = recvWaiter{p: x.p, src: o.peer, tag: o.tag, expect: o.bytes}
	x.p.Block()
	x.phase = opMatched
	return false
}

// mismatch records, under checking, a receive that declared expect bytes
// (expect >= 0) but matched a message of a different size.
func (c *Comm) mismatch(dst, src, tag int, expect, bytes float64) {
	if c.checking && expect >= 0 && expect != bytes {
		c.violations = append(c.violations, fmt.Sprintf(
			"rank %d expected %g bytes from rank %d (tag %d) but the sender delivered %g",
			dst, expect, src, tag, bytes))
	}
}

// Audit returns the communicator's invariant violations at the end of a
// run, as human-readable diagnostics in deterministic order: declared
// receive sizes that did not match the sender (collected under
// SetChecking), send/receive message-count imbalance, messages left in
// inboxes (sent but never received), receivers still suspended, and
// collective tag sequences that diverged across ranks. An empty slice
// means the communicator's schedule balanced exactly.
func (c *Comm) Audit() []string {
	out := append([]string(nil), c.violations...)
	var sent, recvd uint64
	for r := range c.rankNode {
		sent += c.sentMsgs[r]
		recvd += c.recvMsgs[r]
	}
	if sent != recvd {
		out = append(out, fmt.Sprintf("message counts do not balance: %d sent vs %d received", sent, recvd))
	}
	for r, box := range c.boxes {
		left := append([]inboxMsg(nil), box...)
		sort.Slice(left, func(i, j int) bool {
			if left[i].src != left[j].src {
				return left[i].src < left[j].src
			}
			return left[i].tag < left[j].tag
		})
		for i := 0; i < len(left); {
			j := i + 1
			for j < len(left) && left[j].src == left[i].src && left[j].tag == left[i].tag {
				j++
			}
			out = append(out, fmt.Sprintf(
				"rank %d inbox holds %d unreceived message(s) from rank %d with tag %d",
				r, j-i, left[i].src, left[i].tag))
			i = j
		}
	}
	for r, w := range c.waiters {
		if w.p != nil {
			out = append(out, fmt.Sprintf(
				"rank %d still has %d receiver(s) suspended waiting on rank %d tag %d",
				r, 1, w.src, w.tag))
		}
	}
	for r := 1; r < len(c.cseq); r++ {
		if c.cseq[r] != c.cseq[0] {
			out = append(out, fmt.Sprintf(
				"collective tag sequence diverged: rank %d consumed %d tags, rank 0 consumed %d",
				r, c.cseq[r], c.cseq[0]))
		}
	}
	return out
}
