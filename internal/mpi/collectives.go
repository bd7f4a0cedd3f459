package mpi

import (
	"math/bits"

	"clustersoc/internal/sim"
)

// Each collective appends the calling rank's sends and receives to one
// call and runs it, so the rank's process is switched in once per
// collective. The Call methods below are the builders: they only decide
// the schedule, and the blocking Comm methods and a caller stepping its
// own call (Comm.Start) share them.

// nextTag returns a fresh collective tag for this rank. All ranks invoke
// collectives in the same program order, so per-rank counters stay in
// lockstep and match across the communicator.
func (c *Comm) nextTag(rank int) int {
	c.cseq[rank]++
	return collTagBase + c.cseq[rank]
}

// highestBit returns the largest power of two <= v (v > 0).
func highestBit(v int) int { return 1 << (bits.Len(uint(v)) - 1) }

// BcastLargeThreshold switches Bcast from the binomial tree to the
// van-de-Geijn scatter + ring-allgather algorithm, whose cost stays near
// 2*bytes/bandwidth regardless of the tree depth — what MPI libraries do
// for large payloads such as hpl's panels. Exported so the simcheck
// cost models know which algorithm a payload selects.
const BcastLargeThreshold = 256 * 1024

// Bcast broadcasts bytes from root to every rank: a binomial tree
// (log2(P) rounds) for small messages, scatter + allgather for large.
//
// Both paths consume exactly two collective tags, so the per-rank tag
// sequence stays in lockstep across the communicator even if a future
// non-uniform payload makes ranks disagree on the size branch (the small
// path simply leaves its second tag unused).
func (c *Comm) Bcast(p *sim.Process, rank, root int, bytes float64) {
	x := c.Start(p, rank)
	x.Bcast(root, bytes)
	x.run()
}

// Bcast schedules the call's share of Comm.Bcast.
func (x *Call) Bcast(root int, bytes float64) {
	n := x.c.Size()
	if n == 1 {
		return
	}
	tag := x.c.nextTag(x.rank)
	agTag := x.c.nextTag(x.rank)
	if bytes >= BcastLargeThreshold && n > 2 {
		x.scatterFromRoot(root, bytes, tag)
		x.allgatherWith(bytes/float64(n), agTag)
		return
	}
	vrank := (x.rank - root + n) % n
	real := func(v int) int { return (v + root) % n }

	mask := 1
	if vrank != 0 {
		hb := highestBit(vrank)
		x.recv(real(vrank-hb), tag, -1)
		mask = hb << 1
	}
	for ; vrank+mask < n; mask <<= 1 {
		x.send(real(vrank+mask), tag, bytes)
	}
}

// scatterFromRoot distributes 1/n of bytes to each rank down a binomial
// tree: each hop forwards the portion covering the receiver's subtree.
func (x *Call) scatterFromRoot(root int, bytes float64, tag int) {
	n := x.c.Size()
	vrank := (x.rank - root + n) % n
	real := func(v int) int { return (v + root) % n }
	chunk := bytes / float64(n)

	mask := 1
	if vrank != 0 {
		hb := highestBit(vrank)
		x.recv(real(vrank-hb), tag, -1)
		mask = hb << 1
	}
	for ; vrank+mask < n; mask <<= 1 {
		// The receiver owns the subtree [vrank+mask, min(vrank+2*mask, n)).
		sub := mask
		if vrank+mask+sub > n {
			sub = n - vrank - mask
		}
		x.send(real(vrank+mask), tag, chunk*float64(sub))
	}
}

// Reduce combines bytes from every rank onto root with a binomial tree
// (the mirror image of Bcast).
func (c *Comm) Reduce(p *sim.Process, rank, root int, bytes float64) {
	x := c.Start(p, rank)
	x.Reduce(root, bytes)
	x.run()
}

// Reduce schedules the call's share of Comm.Reduce.
func (x *Call) Reduce(root int, bytes float64) {
	n := x.c.Size()
	if n == 1 {
		return
	}
	tag := x.c.nextTag(x.rank)
	vrank := (x.rank - root + n) % n
	real := func(v int) int { return (v + root) % n }

	// Receive from children (largest subtree first, mirroring Bcast's send
	// order reversed), then send to parent. In a binomial tree the children
	// of vrank v are v+m for every power of two m > v with v+m < n; top is
	// the largest of them, or 0 for a leaf.
	top := 0
	for m := 1; vrank+m < n; m <<= 1 {
		if m > vrank {
			top = m
		}
	}
	for m := top; m > vrank; m >>= 1 {
		x.recv(real(vrank+m), tag, -1)
	}
	if vrank != 0 {
		x.send(real(vrank-highestBit(vrank)), tag, bytes)
	}
}

// AllreduceLargeThreshold switches Allreduce from recursive doubling
// (which moves the full vector every round) to Rabenseifner's
// reduce-scatter + allgather, whose volume stays near 2*bytes per rank —
// the large-message algorithm production MPIs use. Exported for the
// simcheck cost models.
const AllreduceLargeThreshold = 512 * 1024

// Allreduce combines bytes across all ranks and leaves the result
// everywhere. Power-of-two communicators use recursive doubling for
// small vectors and Rabenseifner's algorithm for large ones; other sizes
// fall back to Reduce + Bcast.
func (c *Comm) Allreduce(p *sim.Process, rank int, bytes float64) {
	x := c.Start(p, rank)
	x.Allreduce(bytes)
	x.run()
}

// Allreduce schedules the call's share of Comm.Allreduce.
func (x *Call) Allreduce(bytes float64) {
	n := x.c.Size()
	if n == 1 {
		return
	}
	if n&(n-1) != 0 {
		x.Reduce(0, bytes)
		x.Bcast(0, bytes)
		return
	}
	rank := x.rank
	tag := x.c.nextTag(rank)
	if bytes >= AllreduceLargeThreshold && n > 2 {
		// Reduce-scatter by recursive halving: each round exchanges half
		// of the remaining vector with the partner.
		part := bytes / 2
		for mask := 1; mask < n; mask <<= 1 {
			partner := rank ^ mask
			x.sendrecv(partner, partner, tag+mask, part, part)
			part /= 2
		}
		// Allgather by recursive doubling: the owned 1/n chunk grows back.
		part = bytes / float64(n)
		for mask := n >> 1; mask >= 1; mask >>= 1 {
			partner := rank ^ mask
			x.sendrecv(partner, partner, tag+8*n+mask, part, part)
			part *= 2
		}
		return
	}
	for mask := 1; mask < n; mask <<= 1 {
		partner := rank ^ mask
		x.sendrecv(partner, partner, tag+mask, bytes, bytes)
	}
}

// Barrier synchronizes all ranks (an 8-byte allreduce).
func (c *Comm) Barrier(p *sim.Process, rank int) {
	x := c.Start(p, rank)
	x.Barrier()
	x.run()
}

// Barrier schedules the call's share of Comm.Barrier.
func (x *Call) Barrier() { x.Allreduce(8) }

// Allgather distributes each rank's bytes-sized contribution to everyone
// using a ring: P-1 rounds, each forwarding one chunk to the right.
func (c *Comm) Allgather(p *sim.Process, rank int, bytes float64) {
	x := c.Start(p, rank)
	x.Allgather(bytes)
	x.run()
}

// Allgather schedules the call's share of Comm.Allgather.
func (x *Call) Allgather(bytes float64) {
	if x.c.Size() > 1 {
		x.allgatherWith(bytes, x.c.nextTag(x.rank))
	}
}

// allgatherWith is the ring allgather on a caller-supplied tag, shared by
// Allgather and the large-message Bcast (whose tag budget is fixed).
func (x *Call) allgatherWith(bytes float64, tag int) {
	n := x.c.Size()
	right := (x.rank + 1) % n
	left := (x.rank - 1 + n) % n
	for step := 0; step < n-1; step++ {
		x.sendrecv(right, left, tag, bytes, bytes)
	}
}

// Alltoall exchanges bytesPerPair between every pair of ranks using the
// pairwise-exchange algorithm (P-1 balanced rounds), as large FT/IS
// transposes do.
func (c *Comm) Alltoall(p *sim.Process, rank int, bytesPerPair float64) {
	x := c.Start(p, rank)
	x.Alltoall(bytesPerPair)
	x.run()
}

// Alltoall schedules the call's share of Comm.Alltoall.
func (x *Call) Alltoall(bytesPerPair float64) {
	if n := x.c.Size(); n > 1 {
		rank := x.rank
		tag := x.c.nextTag(rank)
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
			x.sendrecv(sendTo, recvFrom, tag+step, bytesPerPair, bytesPerPair)
		}
	}
}

// Gather collects bytes from every rank to root with direct sends (fan-in
// serializes at root's NIC, which is physical).
func (c *Comm) Gather(p *sim.Process, rank, root int, bytes float64) {
	x := c.Start(p, rank)
	x.Gather(root, bytes)
	x.run()
}

// Gather schedules the call's share of Comm.Gather.
func (x *Call) Gather(root int, bytes float64) {
	if n := x.c.Size(); n > 1 {
		rank := x.rank
		tag := x.c.nextTag(rank)
		if rank == root {
			for r := 0; r < n; r++ {
				if r != root {
					x.recv(r, tag, -1)
				}
			}
		} else {
			x.send(root, tag, bytes)
		}
	}
}
