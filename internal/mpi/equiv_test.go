package mpi

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"clustersoc/internal/network"
	"clustersoc/internal/sim"
)

// calls is the API the call executor (*Comm) and the straight-line
// oracle (refComm) both implement.
type calls interface {
	Send(p *sim.Process, src, dst, tag int, bytes float64)
	Recv(p *sim.Process, dst, src, tag int)
	Sendrecv(p *sim.Process, me, dst, src, tag int, sendBytes, recvBytes float64)
	Bcast(p *sim.Process, rank, root int, bytes float64)
	Reduce(p *sim.Process, rank, root int, bytes float64)
	Allreduce(p *sim.Process, rank int, bytes float64)
	Barrier(p *sim.Process, rank int)
	Allgather(p *sim.Process, rank int, bytes float64)
	Alltoall(p *sim.Process, rank int, bytesPerPair float64)
	Gather(p *sim.Process, rank, root int, bytes float64)
}

// fbits renders a float exactly, so two runs compare bit for bit.
func fbits(f float64) string { return fmt.Sprintf("%x", math.Float64bits(f)) }

// callLog records every Recorder and PathRecorder call in order.
type callLog struct {
	lines []string
	ids   int32
}

func (l *callLog) RecordSend(rank, peer, tag int, bytes, start, end float64) {
	l.lines = append(l.lines, fmt.Sprintf("send %d>%d t%d %s %s-%s", rank, peer, tag, fbits(bytes), fbits(start), fbits(end)))
}

func (l *callLog) RecordRecv(rank, peer, tag int, start, end float64) {
	l.lines = append(l.lines, fmt.Sprintf("recv %d<%d t%d %s-%s", rank, peer, tag, fbits(start), fbits(end)))
}

func (l *callLog) PathSend(src, dst, tag int, bytes, post, senderFree, arrival float64, retrans bool) int32 {
	l.ids++
	l.lines = append(l.lines, fmt.Sprintf("psend #%d %d>%d t%d %s %s %s %s %v",
		l.ids, src, dst, tag, fbits(bytes), fbits(post), fbits(senderFree), fbits(arrival), retrans))
	return l.ids
}

func (l *callLog) PathRecv(dst int, id int32, post, end float64) {
	l.lines = append(l.lines, fmt.Sprintf("precv #%d %d %s-%s", id, dst, fbits(post), fbits(end)))
}

// everyThird loses every third cross-node message it is asked about.
type everyThird struct{ seen int }

func (l *everyThird) Lose(src, dst int, bytes float64) bool { l.seen++; return l.seen%3 == 0 }
func (l *everyThird) Timeout() float64                      { return 2e-4 }

// outcome is everything a run exposes, with floats as exact bit strings.
type outcome struct {
	Done, Blocked              []string // per-rank completion time and blocked seconds
	EngineBlocked, End         string
	Events, Stale              uint64
	Sent, Msgs, Recvd, Retrans []string
	Audit, Log                 []string
}

// equivProgram is one rank's run of every call, with a deterministic
// per-rank compute jitter before each so that sends land both before and
// after their receives are posted. The Sendrecv on tag 3 declares the
// wrong size on purpose, so Audit has violations to compare.
func equivProgram(c calls, p *sim.Process, rank, n int) {
	k := 0
	jitter := func() {
		k++
		p.Sleep(float64((rank*7+k*13)%5) * 3e-5)
	}
	root := n / 2
	right, left := (rank+1)%n, (rank+n-1)%n
	jitter()
	c.Send(p, rank, right, 1, 3000)
	jitter()
	c.Recv(p, rank, left, 1)
	jitter()
	c.Send(p, rank, left, 4, 0) // drained at once: no wait for the NIC
	jitter()
	c.Recv(p, rank, right, 4)
	jitter()
	c.Sendrecv(p, rank, (rank+2)%n, (rank+n-2)%n, 2, 5000, 5000)
	jitter()
	c.Sendrecv(p, rank, right, left, 3, float64(1000+rank), float64(1000+rank))
	jitter()
	c.Bcast(p, rank, root, 4096)
	jitter()
	c.Bcast(p, rank, root, 2*BcastLargeThreshold)
	jitter()
	c.Reduce(p, rank, root, 8192)
	jitter()
	c.Allreduce(p, rank, 64)
	jitter()
	c.Allreduce(p, rank, 2*AllreduceLargeThreshold)
	jitter()
	c.Allgather(p, rank, 2048)
	jitter()
	c.Alltoall(p, rank, 1000)
	jitter()
	c.Gather(p, rank, root, 700)
	jitter()
	c.Barrier(p, rank)
}

// runEquiv runs equivProgram on n ranks, perNode ranks to a node, over
// prof, through the executor (ref false) or the oracle (ref true).
func runEquiv(n, perNode int, prof network.Profile, lossy, ref bool) outcome {
	e := sim.NewEngine()
	nodes := (n + perNode - 1) / perNode
	rankNode := make([]int, n)
	for r := range rankNode {
		rankNode[r] = r / perNode
	}
	c := NewComm(e, network.New(e, nodes, prof), rankNode)
	log := &callLog{}
	c.SetRecorder(log)
	c.SetPathRecorder(log)
	c.SetChecking(true)
	if lossy {
		c.SetLossInjector(&everyThird{})
	}
	var api calls = c
	if ref {
		api = refComm{c}
	}
	procs := make([]*sim.Process, n)
	var o outcome
	o.Done = make([]string, n)
	for r := 0; r < n; r++ {
		r := r
		procs[r] = e.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Process) {
			equivProgram(api, p, r, n)
			o.Done[r] = fbits(p.Now())
		})
	}
	o.End = fbits(e.Run())
	for r, p := range procs {
		o.Blocked = append(o.Blocked, fbits(p.BlockedSeconds()))
		o.Sent = append(o.Sent, fbits(c.SentBytes(r)))
		o.Msgs = append(o.Msgs, fmt.Sprint(c.Messages(r)))
		o.Recvd = append(o.Recvd, fmt.Sprint(c.Receives(r)))
		o.Retrans = append(o.Retrans, fbits(c.RetransmittedBytes(r))+"/"+fmt.Sprint(c.Retransmissions(r)))
	}
	o.EngineBlocked = fbits(e.BlockedSeconds())
	o.Events, o.Stale = e.Events(), e.StaleWakes()
	o.Audit = c.Audit()
	o.Log = log.lines
	return o
}

// TestCallsMatchStraightLineBodies holds the call executor to the
// straight-line bodies it replaced: every call at 1-9 ranks, one and four
// ranks to a node, on both NICs, with and without message loss, yields
// bit-identical completion times, events, blocked time, recorder and
// path-recorder call sequences, traffic counters and audit.
func TestCallsMatchStraightLineBodies(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for _, perNode := range []int{1, 4} {
			for _, prof := range []network.Profile{network.GigE, network.TenGigE} {
				for _, lossy := range []bool{false, true} {
					name := fmt.Sprintf("n%d/per%d/%s/lossy=%v", n, perNode, prof.Name, lossy)
					got := runEquiv(n, perNode, prof, lossy, false)
					want := runEquiv(n, perNode, prof, lossy, true)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: executor and straight-line bodies differ:\n got %+v\nwant %+v", name, got, want)
					}
					if n > 1 && len(got.Audit) != n {
						t.Errorf("%s: want %d size-mismatch diagnostics, got %q", name, n, got.Audit)
					}
					if lossy && perNode < n && !hasRetrans(got) {
						t.Errorf("%s: the loss model retransmitted nothing", name)
					}
				}
			}
		}
	}
}

func hasRetrans(o outcome) bool {
	for _, r := range o.Retrans {
		if r != fbits(0)+"/0" {
			return true
		}
	}
	return false
}

// TestEachCallSwitchesEachRankInOnce is the deterministic switch guard:
// on 8 ranks each rank's goroutine is switched in once for its first
// activation and once per call, however many messages the call
// decomposes into. The straight-line bodies, which block once per
// message, switch in far more often on the same engine.
func TestEachCallSwitchesEachRankInOnce(t *testing.T) {
	const n = 8
	cases := []struct {
		name string
		call func(c calls, p *sim.Process, rank int)
	}{
		{"Sendrecv", func(c calls, p *sim.Process, rank int) {
			c.Sendrecv(p, rank, (rank+1)%n, (rank+n-1)%n, 5, 4096, 4096)
		}},
		{"Bcast/small", func(c calls, p *sim.Process, rank int) { c.Bcast(p, rank, 3, 4096) }},
		{"Bcast/large", func(c calls, p *sim.Process, rank int) { c.Bcast(p, rank, 3, 2*BcastLargeThreshold) }},
		{"Allreduce", func(c calls, p *sim.Process, rank int) { c.Allreduce(p, rank, 4096) }},
		{"Alltoall", func(c calls, p *sim.Process, rank int) { c.Alltoall(p, rank, 4096) }},
	}
	for _, tc := range cases {
		switches := func(ref bool) uint64 {
			e, c := build(n, network.TenGigE)
			var api calls = c
			if ref {
				api = refComm{c}
			}
			runRanks(e, n, func(p *sim.Process, rank int) { tc.call(api, p, rank) })
			return e.Switches()
		}
		if got := switches(false); got != 2*n {
			t.Errorf("%s: %d switches on %d ranks, want %d (one activation and one per call)", tc.name, got, n, 2*n)
		}
		if ref := switches(true); ref <= 2*n {
			t.Errorf("%s: the per-message bodies switched only %d times; the guard cannot tell them apart", tc.name, ref)
		}
	}
}

// TestWarmCallsAllocateNothing asserts that once every rank's call and
// the inboxes and calendar have grown to size, a loop of MPI calls
// allocates nothing: calls are pooled and their step is bound once.
func TestWarmCallsAllocateNothing(t *testing.T) {
	const n = 8
	e, c := build(n, network.TenGigE)
	for r := 0; r < n; r++ {
		rank := r
		e.Spawn("rank", func(p *sim.Process) {
			for {
				c.Sendrecv(p, rank, (rank+1)%n, (rank+n-1)%n, 5, 4096, 4096)
				c.Send(p, rank, (rank+3)%n, 6, 1000)
				c.Recv(p, rank, (rank+n-3)%n, 6)
				c.Bcast(p, rank, 2, 4096)
				c.Bcast(p, rank, 5, 2*BcastLargeThreshold)
				c.Allreduce(p, rank, 64)
				c.Alltoall(p, rank, 1000)
				p.Sleep(1e-4)
			}
		})
	}
	limit := 0.5
	e.RunUntil(limit) // warm up: call pool, op lists, inboxes, calendar
	allocs := testing.AllocsPerRun(10, func() {
		limit += 0.1
		e.RunUntil(limit)
	})
	if allocs != 0 {
		t.Fatalf("warm MPI calls allocate %.1f objects per 0.1 simulated seconds, want 0", allocs)
	}
}
