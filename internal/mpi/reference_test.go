package mpi

import (
	"fmt"

	"clustersoc/internal/sim"
)

// refComm runs the communicator's point-to-point calls and collectives
// the way they were written before calls became schedules: straight-line
// bodies in which the rank's process blocks once per message. It shares
// the Comm's matching state and recorders, so it is the oracle the call
// executor is held to, event for event (see equiv_test.go).
type refComm struct{ *Comm }

// Send transmits bytes from src to dst with a tag, blocking p (the process
// running rank src) until the local NIC has drained the message.
func (c refComm) Send(p *sim.Process, src, dst, tag int, bytes float64) {
	c.check(src)
	c.check(dst)
	start := p.Now()
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
		pathID = c.pr.PathSend(src, dst, tag, bytes, start, senderFree, arrival, retrans)
	}
	if w := c.waiters[dst]; w.p != nil && w.src == src && w.tag == tag {
		if c.pr != nil {
			if c.pendingPath[dst] >= 0 {
				panic(fmt.Sprintf("mpi: rank %d has two matched receives in flight", dst))
			}
			c.pendingPath[dst] = pathID
		}
		c.waiters[dst] = recvWaiter{} // don't pin the process
		if c.checking && w.expect >= 0 && w.expect != bytes {
			c.violations = append(c.violations, fmt.Sprintf(
				"rank %d expected %g bytes from rank %d (tag %d) but the sender delivered %g",
				dst, w.expect, src, tag, bytes))
		}
		c.eng.ResumeAt(arrival, w.p)
	} else {
		c.boxes[dst] = append(c.boxes[dst], inboxMsg{src: src, tag: tag, arrival: arrival, bytes: bytes, pathID: pathID})
	}
	p.SleepUntil(senderFree)
	if c.rec != nil {
		c.rec.RecordSend(src, dst, tag, bytes, start, p.Now())
	}
}

// Recv blocks p (the process running rank dst) until a message from src
// with the tag has fully arrived.
func (c refComm) Recv(p *sim.Process, dst, src, tag int) {
	c.recvExpect(p, dst, src, tag, -1)
}

// recvExpect is Recv with a declared payload size: expect >= 0 asserts
// (under checking) that the matched message carries exactly that many
// bytes, so an asymmetric-exchange miscount fails the audit loudly
// instead of silently corrupting timings.
func (c refComm) recvExpect(p *sim.Process, dst, src, tag int, expect float64) {
	c.check(src)
	c.check(dst)
	start := p.Now()
	pathID := int32(-1)
	box := c.boxes[dst]
	i := 0
	for i < len(box) && (box[i].src != src || box[i].tag != tag) {
		i++
	}
	if i < len(box) {
		m := box[i]
		c.boxes[dst] = append(box[:i], box[i+1:]...)
		if c.checking && expect >= 0 && expect != m.bytes {
			c.violations = append(c.violations, fmt.Sprintf(
				"rank %d expected %g bytes from rank %d (tag %d) but the sender delivered %g",
				dst, expect, src, tag, m.bytes))
		}
		pathID = m.pathID
		p.SleepUntil(m.arrival)
	} else {
		if w := c.waiters[dst]; w.p != nil {
			panic(fmt.Sprintf("mpi: rank %d posted a receive from rank %d tag %d while one from rank %d tag %d is blocked",
				dst, src, tag, w.src, w.tag))
		}
		c.waiters[dst] = recvWaiter{p: p, src: src, tag: tag, expect: expect}
		p.Suspend()
		if c.pr != nil {
			pathID = c.pendingPath[dst]
			c.pendingPath[dst] = -1
		}
	}
	c.recvMsgs[dst]++
	if c.pr != nil {
		c.pr.PathRecv(dst, pathID, start, p.Now())
	}
	if c.rec != nil {
		c.rec.RecordRecv(dst, src, tag, start, p.Now())
	}
}

// Sendrecv sends to dst and receives from src (both with the same tag), as
// one deadlock-free exchange. recvBytes declares the expected size of the
// incoming message; under checking a mismatch with the peer's actual send
// size is reported by Audit.
func (c refComm) Sendrecv(p *sim.Process, me, dst, src, tag int, sendBytes, recvBytes float64) {
	c.Send(p, me, dst, tag, sendBytes)
	c.recvExpect(p, me, src, tag, recvBytes)
}

// Bcast broadcasts bytes from root to every rank: a binomial tree
// (log2(P) rounds) for small messages, scatter + allgather for large.
//
// Both paths consume exactly two collective tags, so the per-rank tag
// sequence stays in lockstep across the communicator even if a future
// non-uniform payload makes ranks disagree on the size branch (the small
// path simply leaves its second tag unused).
func (c refComm) Bcast(p *sim.Process, rank, root int, bytes float64) {
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.nextTag(rank)
	agTag := c.nextTag(rank)
	if bytes >= BcastLargeThreshold && n > 2 {
		c.scatterFromRoot(p, rank, root, bytes, tag)
		c.allgatherWith(p, rank, bytes/float64(n), agTag)
		return
	}
	vrank := (rank - root + n) % n
	real := func(v int) int { return (v + root) % n }

	mask := 1
	if vrank != 0 {
		hb := highestBit(vrank)
		c.Recv(p, rank, real(vrank-hb), tag)
		mask = hb << 1
	}
	for ; vrank+mask < n; mask <<= 1 {
		c.Send(p, rank, real(vrank+mask), tag, bytes)
	}
}

// scatterFromRoot distributes 1/n of bytes to each rank down a binomial
// tree: each hop forwards the portion covering the receiver's subtree.
func (c refComm) scatterFromRoot(p *sim.Process, rank, root int, bytes float64, tag int) {
	n := c.Size()
	vrank := (rank - root + n) % n
	real := func(v int) int { return (v + root) % n }
	chunk := bytes / float64(n)

	mask := 1
	if vrank != 0 {
		hb := highestBit(vrank)
		c.Recv(p, rank, real(vrank-hb), tag)
		mask = hb << 1
	}
	for ; vrank+mask < n; mask <<= 1 {
		// The receiver owns the subtree [vrank+mask, min(vrank+2*mask, n)).
		sub := mask
		if vrank+mask+sub > n {
			sub = n - vrank - mask
		}
		c.Send(p, rank, real(vrank+mask), tag, chunk*float64(sub))
	}
}

// Reduce combines bytes from every rank onto root with a binomial tree
// (the mirror image of Bcast).
func (c refComm) Reduce(p *sim.Process, rank, root int, bytes float64) {
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.nextTag(rank)
	vrank := (rank - root + n) % n
	real := func(v int) int { return (v + root) % n }

	// Receive from children (largest subtree first, mirroring Bcast's send
	// order reversed), then send to parent. In a binomial tree the children
	// of vrank v are v+m for every power of two m > v with v+m < n.
	var children []int
	for m := 1; vrank+m < n; m <<= 1 {
		if m > vrank {
			children = append(children, vrank+m)
		}
	}
	for i := len(children) - 1; i >= 0; i-- {
		c.Recv(p, rank, real(children[i]), tag)
	}
	if vrank != 0 {
		c.Send(p, rank, real(vrank-highestBit(vrank)), tag, bytes)
	}
}

// Allreduce combines bytes across all ranks and leaves the result
// everywhere. Power-of-two communicators use recursive doubling for
// small vectors and Rabenseifner's algorithm for large ones; other sizes
// fall back to Reduce + Bcast.
func (c refComm) Allreduce(p *sim.Process, rank int, bytes float64) {
	n := c.Size()
	if n == 1 {
		return
	}
	if n&(n-1) != 0 {
		c.Reduce(p, rank, 0, bytes)
		c.Bcast(p, rank, 0, bytes)
		return
	}
	tag := c.nextTag(rank)
	if bytes >= AllreduceLargeThreshold && n > 2 {
		// Reduce-scatter by recursive halving: each round exchanges half
		// of the remaining vector with the partner.
		part := bytes / 2
		for mask := 1; mask < n; mask <<= 1 {
			partner := rank ^ mask
			c.Sendrecv(p, rank, partner, partner, tag+mask, part, part)
			part /= 2
		}
		// Allgather by recursive doubling: the owned 1/n chunk grows back.
		part = bytes / float64(n)
		for mask := n >> 1; mask >= 1; mask >>= 1 {
			partner := rank ^ mask
			c.Sendrecv(p, rank, partner, partner, tag+8*n+mask, part, part)
			part *= 2
		}
		return
	}
	for mask := 1; mask < n; mask <<= 1 {
		partner := rank ^ mask
		c.Sendrecv(p, rank, partner, partner, tag+mask, bytes, bytes)
	}
}

// Barrier synchronizes all ranks (an 8-byte allreduce).
func (c refComm) Barrier(p *sim.Process, rank int) {
	c.Allreduce(p, rank, 8)
}

// Allgather distributes each rank's bytes-sized contribution to everyone
// using a ring: P-1 rounds, each forwarding one chunk to the right.
func (c refComm) Allgather(p *sim.Process, rank int, bytes float64) {
	n := c.Size()
	if n == 1 {
		return
	}
	c.allgatherWith(p, rank, bytes, c.nextTag(rank))
}

// allgatherWith is the ring allgather on a caller-supplied tag, shared by
// Allgather and the large-message Bcast (whose tag budget is fixed).
func (c refComm) allgatherWith(p *sim.Process, rank int, bytes float64, tag int) {
	n := c.Size()
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	for step := 0; step < n-1; step++ {
		c.Sendrecv(p, rank, right, left, tag, bytes, bytes)
	}
}

// Alltoall exchanges bytesPerPair between every pair of ranks using the
// pairwise-exchange algorithm (P-1 balanced rounds), as large FT/IS
// transposes do.
func (c refComm) Alltoall(p *sim.Process, rank int, bytesPerPair float64) {
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.nextTag(rank)
	pow2 := n&(n-1) == 0
	for step := 1; step < n; step++ {
		var sendTo, recvFrom int
		if pow2 {
			sendTo = rank ^ step
			recvFrom = sendTo
		} else {
			sendTo = (rank + step) % n
			recvFrom = (rank - step + n) % n
		}
		c.Sendrecv(p, rank, sendTo, recvFrom, tag+step, bytesPerPair, bytesPerPair)
	}
}

// Gather collects bytes from every rank to root with direct sends (fan-in
// serializes at root's NIC, which is physical).
func (c refComm) Gather(p *sim.Process, rank, root int, bytes float64) {
	n := c.Size()
	if n == 1 {
		return
	}
	tag := c.nextTag(rank)
	if rank == root {
		for r := 0; r < n; r++ {
			if r != root {
				c.Recv(p, rank, r, tag)
			}
		}
		return
	}
	c.Send(p, rank, root, tag, bytes)
}
