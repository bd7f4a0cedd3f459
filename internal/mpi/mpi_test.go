package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"clustersoc/internal/network"
	"clustersoc/internal/sim"
	"clustersoc/internal/units"
)

// build creates an n-rank communicator, one rank per node.
func build(n int, prof network.Profile) (*sim.Engine, *Comm) {
	e := sim.NewEngine()
	nw := network.New(e, n, prof)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return e, NewComm(e, nw, nodes)
}

// recvExpect is Recv declaring the expected size: under checking, Audit
// reports a matched message of any other size.
func recvExpect(c *Comm, p *sim.Process, dst, src, tag int, expect float64) {
	x := c.Start(p, dst)
	x.recv(src, tag, expect)
	x.run()
}

// runRanks spawns body for every rank and runs to completion.
func runRanks(e *sim.Engine, n int, body func(p *sim.Process, rank int)) float64 {
	for r := 0; r < n; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Process) { body(p, r) })
	}
	return e.Run()
}

func TestSendRecvBasic(t *testing.T) {
	e, c := build(2, network.GigE)
	var recvAt float64
	runRanks(e, 2, func(p *sim.Process, rank int) {
		if rank == 0 {
			c.Send(p, 0, 1, 7, 1*units.MB)
		} else {
			c.Recv(p, 1, 0, 7)
			recvAt = p.Now()
		}
	})
	want := 1*units.MB/network.GigE.Throughput + network.GigE.Latency
	if math.Abs(recvAt-want) > 1e-9 {
		t.Fatalf("recv at %v, want %v", recvAt, want)
	}
}

func TestRecvBeforeSendBlocks(t *testing.T) {
	e, c := build(2, network.GigE)
	order := []string{}
	runRanks(e, 2, func(p *sim.Process, rank int) {
		if rank == 1 {
			c.Recv(p, 1, 0, 3) // posted first, must block
			order = append(order, "recv")
		} else {
			p.Sleep(0.5)
			c.Send(p, 0, 1, 3, 100)
			order = append(order, "send")
		}
	})
	if len(order) != 2 || order[0] != "send" {
		t.Fatalf("order = %v", order)
	}
}

func TestMessageOrderFIFOPerTag(t *testing.T) {
	e, c := build(2, network.TenGigE)
	var times []float64
	runRanks(e, 2, func(p *sim.Process, rank int) {
		if rank == 0 {
			for i := 0; i < 3; i++ {
				c.Send(p, 0, 1, 1, 1*units.MB)
			}
		} else {
			for i := 0; i < 3; i++ {
				c.Recv(p, 1, 0, 1)
				times = append(times, p.Now())
			}
		}
	})
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("non-monotonic arrivals: %v", times)
		}
	}
}

func TestTagsMatchIndependently(t *testing.T) {
	e, c := build(2, network.TenGigE)
	got := []int{}
	runRanks(e, 2, func(p *sim.Process, rank int) {
		if rank == 0 {
			c.Send(p, 0, 1, 10, 100)
			c.Send(p, 0, 1, 20, 100)
		} else {
			c.Recv(p, 1, 0, 20) // out of send order, by tag
			got = append(got, 20)
			c.Recv(p, 1, 0, 10)
			got = append(got, 10)
		}
	})
	if len(got) != 2 || got[0] != 20 || got[1] != 10 {
		t.Fatalf("tag matching broken: %v", got)
	}

	// A receive finds its message behind other tags in the inbox, and the
	// three tag-30 messages leave in send order: checking audits each
	// receive's declared size against the message it matched.
	e, c = build(2, network.TenGigE)
	c.SetChecking(true)
	runRanks(e, 2, func(p *sim.Process, rank int) {
		if rank == 0 {
			for _, m := range []struct{ tag, bytes int }{{10, 100}, {20, 100}, {30, 1000}, {20, 200}, {30, 2000}, {30, 3000}} {
				c.Send(p, 0, 1, m.tag, float64(m.bytes))
			}
		} else {
			p.Sleep(1) // every message is in the inbox
			for _, m := range []struct{ tag, bytes int }{{30, 1000}, {30, 2000}, {30, 3000}, {20, 100}, {20, 200}, {10, 100}} {
				recvExpect(c, p, 1, 0, m.tag, float64(m.bytes))
			}
		}
	})
	if diags := c.Audit(); len(diags) != 0 {
		t.Fatalf("out-of-order receives matched the wrong messages: %v", diags)
	}

	// A blocked receive resumes only for its own tag: the tag-10 message
	// sent first goes to the inbox.
	e, c = build(2, network.TenGigE)
	c.SetChecking(true)
	runRanks(e, 2, func(p *sim.Process, rank int) {
		if rank == 0 {
			p.Sleep(1) // the receive blocks first
			c.Send(p, 0, 1, 10, 100)
			c.Send(p, 0, 1, 20, 200)
		} else {
			recvExpect(c, p, 1, 0, 20, 200)
			recvExpect(c, p, 1, 0, 10, 100)
		}
	})
	if diags := c.Audit(); len(diags) != 0 {
		t.Fatalf("a blocked receive matched another tag: %v", diags)
	}
}

func TestBcastSmallDeliversToAll(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		e, c := build(n, network.TenGigE)
		done := 0
		runRanks(e, n, func(p *sim.Process, rank int) {
			c.Bcast(p, rank, 0, 100*units.KB) // below the large threshold
			done++
		})
		if done != n {
			t.Fatalf("n=%d: only %d ranks finished bcast", n, done)
		}
		// A binomial tree moves exactly (n-1) copies of the payload.
		var sent float64
		for r := 0; r < n; r++ {
			sent += c.SentBytes(r)
		}
		if math.Abs(sent-float64(n-1)*100*units.KB) > 1 {
			t.Fatalf("n=%d: bcast moved %v bytes, want %v", n, sent, float64(n-1)*100*units.KB)
		}
	}
}

// Large broadcasts switch to scatter+allgather: volume stays O(2*bytes)
// and the completion time beats the tree for deep communicators.
func TestBcastLargeScatterAllgather(t *testing.T) {
	for _, n := range []int{4, 8, 11} {
		e, c := build(n, network.TenGigE)
		done := 0
		payload := 8 * units.MB
		runRanks(e, n, func(p *sim.Process, rank int) {
			c.Bcast(p, rank, 0, payload)
			done++
		})
		if done != n {
			t.Fatalf("n=%d: %d ranks finished", n, done)
		}
		var sent float64
		for r := 0; r < n; r++ {
			sent += c.SentBytes(r)
		}
		// The ring allgather moves (n-1) chunk-sets = (n-1)/n * n * chunk
		// per rank: (n-1)*payload total. The binomial scatter adds at most
		// log2(n)*payload (each chunk travels at most the tree depth).
		lo := float64(n-1) / float64(n) * payload * float64(n-1)
		hi := float64(n-1)*payload + 3.5*payload
		if sent < lo || sent > hi {
			t.Fatalf("n=%d: large bcast moved %v, want in [%v, %v]", n, sent, lo, hi)
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	e, c := build(5, network.TenGigE)
	done := 0
	runRanks(e, 5, func(p *sim.Process, rank int) {
		c.Bcast(p, rank, 3, 1000)
		done++
	})
	if done != 5 {
		t.Fatalf("%d ranks finished", done)
	}
}

func TestReduceCompletes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for root := 0; root < n; root++ {
			e, c := build(n, network.TenGigE)
			done := 0
			runRanks(e, n, func(p *sim.Process, rank int) {
				c.Reduce(p, rank, root, 1000)
				done++
			})
			if done != n {
				t.Fatalf("n=%d root=%d: %d finished", n, root, done)
			}
		}
	}
}

func TestAllreduceByteCountRecursiveDoubling(t *testing.T) {
	n := 8
	e, c := build(n, network.TenGigE)
	bytes := 100 * units.KB // below the Rabenseifner threshold
	runRanks(e, n, func(p *sim.Process, rank int) {
		c.Allreduce(p, rank, bytes)
	})
	var sent float64
	for r := 0; r < n; r++ {
		sent += c.SentBytes(r)
	}
	want := float64(n) * 3 * bytes // log2(8)=3 rounds, every rank sends each round
	if math.Abs(sent-want) > 1 {
		t.Fatalf("allreduce moved %v, want %v", sent, want)
	}
}

func TestAllreduceNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7} {
		e, c := build(n, network.GigE)
		done := 0
		runRanks(e, n, func(p *sim.Process, rank int) {
			c.Allreduce(p, rank, 1000)
			done++
		})
		if done != n {
			t.Fatalf("n=%d: %d finished", n, done)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	n := 4
	e, c := build(n, network.TenGigE)
	var after []float64
	runRanks(e, n, func(p *sim.Process, rank int) {
		p.Sleep(float64(rank)) // staggered arrival; slowest at t=3
		c.Barrier(p, rank)
		after = append(after, p.Now())
	})
	for _, a := range after {
		if a < 3 {
			t.Fatalf("a rank left the barrier at %v before the slowest arrived", a)
		}
	}
}

func TestAlltoallByteCount(t *testing.T) {
	for _, n := range []int{4, 6} {
		e, c := build(n, network.TenGigE)
		per := 100 * units.KB
		runRanks(e, n, func(p *sim.Process, rank int) {
			c.Alltoall(p, rank, per)
		})
		var sent float64
		for r := 0; r < n; r++ {
			sent += c.SentBytes(r)
		}
		want := float64(n) * float64(n-1) * per
		if math.Abs(sent-want) > 1 {
			t.Fatalf("n=%d: alltoall moved %v, want %v", n, sent, want)
		}
	}
}

func TestAllgatherRingByteCount(t *testing.T) {
	n := 5
	e, c := build(n, network.TenGigE)
	per := 10 * units.KB
	runRanks(e, n, func(p *sim.Process, rank int) {
		c.Allgather(p, rank, per)
	})
	var sent float64
	for r := 0; r < n; r++ {
		sent += c.SentBytes(r)
	}
	want := float64(n) * float64(n-1) * per
	if math.Abs(sent-want) > 1 {
		t.Fatalf("allgather moved %v, want %v", sent, want)
	}
}

func TestGather(t *testing.T) {
	n := 6
	e, c := build(n, network.TenGigE)
	done := 0
	runRanks(e, n, func(p *sim.Process, rank int) {
		c.Gather(p, rank, 2, 1000)
		done++
	})
	if done != n {
		t.Fatalf("%d finished", done)
	}
}

// The network choice must matter: the same allreduce is faster on 10 GbE.
func TestFasterNICFasterCollective(t *testing.T) {
	run := func(prof network.Profile) float64 {
		e, c := build(8, prof)
		return runRanks(e, 8, func(p *sim.Process, rank int) {
			c.Allreduce(p, rank, 10*units.MB)
		})
	}
	t1, t10 := run(network.GigE), run(network.TenGigE)
	if t10 >= t1 {
		t.Fatalf("10GbE (%v) not faster than 1GbE (%v)", t10, t1)
	}
	speedup := t1 / t10
	if speedup < 2 {
		t.Errorf("speedup %.2f suspiciously low for a bandwidth-bound collective", speedup)
	}
}

// Intra-node ranks communicate through memory: a 2-rank comm on one node
// beats the same on two nodes.
func TestIntraNodeFaster(t *testing.T) {
	e1 := sim.NewEngine()
	nw1 := network.New(e1, 1, network.GigE)
	c1 := NewComm(e1, nw1, []int{0, 0})
	var tShared float64
	for r := 0; r < 2; r++ {
		r := r
		e1.Spawn("rank", func(p *sim.Process) {
			c1.Allreduce(p, r, 10*units.MB)
			tShared = p.Now()
		})
	}
	e1.Run()

	e2, c2 := build(2, network.GigE)
	tNet := runRanks(e2, 2, func(p *sim.Process, rank int) {
		c2.Allreduce(p, rank, 10*units.MB)
	})
	if tShared >= tNet {
		t.Fatalf("shared memory (%v) not faster than network (%v)", tShared, tNet)
	}
}

// Property: collectives complete (no deadlock, no lost wakeup) for random
// sizes and rank counts.
func TestCollectivesCompleteProperty(t *testing.T) {
	f := func(nRaw, bRaw uint8) bool {
		n := int(nRaw%12) + 1
		root := int(bRaw) % n
		bytes := float64(bRaw)*1000 + 8
		e, c := build(n, network.GigE)
		done := 0
		runRanks(e, n, func(p *sim.Process, rank int) {
			c.Allreduce(p, rank, bytes)
			c.Bcast(p, rank, root, bytes)
			c.Alltoall(p, rank, bytes/8)
			done++
		})
		return done == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Large allreduces switch to Rabenseifner's reduce-scatter + allgather:
// per-rank volume ~2*bytes (vs log2(n)*bytes for recursive doubling), and
// it must be faster for bandwidth-bound payloads.
func TestAllreduceLargeUsesRabenseifner(t *testing.T) {
	n := 8
	e, c := build(n, network.TenGigE)
	payload := 8 * units.MB
	end := runRanks(e, n, func(p *sim.Process, rank int) {
		c.Allreduce(p, rank, payload)
	})
	var sent float64
	for r := 0; r < n; r++ {
		sent += c.SentBytes(r)
	}
	// reduce-scatter: bytes*(1/2+1/4+1/8) ~ 7/8*bytes; allgather the same:
	// total per rank ~ 1.75*bytes, cluster ~ n*1.75*bytes — far below the
	// n*3*bytes of recursive doubling.
	rdVolume := float64(n) * 3 * payload
	if sent >= rdVolume*0.8 {
		t.Fatalf("large allreduce moved %v, expected well under recursive doubling's %v", sent, rdVolume)
	}
	// And it should beat a recursive-doubling run of the same payload in time.
	e2, c2 := build(n, network.TenGigE)
	end2 := runRanks(e2, n, func(p *sim.Process, rank int) {
		// Force the small-message path by splitting into sub-threshold chunks.
		for i := 0; i < 32; i++ {
			c2.Allreduce(p, rank, payload/32)
		}
	})
	if end >= end2 {
		t.Fatalf("Rabenseifner (%v) not faster than chunked recursive doubling (%v)", end, end2)
	}
}
