package mpi

import (
	"fmt"
	"strings"
	"testing"

	"clustersoc/internal/network"
	"clustersoc/internal/sim"
	"clustersoc/internal/units"
)

// A balanced schedule audits clean: counts match, inboxes drain, tags
// stay in lockstep.
func TestAuditCleanSchedule(t *testing.T) {
	n := 5
	e, c := build(n, network.TenGigE)
	c.SetChecking(true)
	runRanks(e, n, func(p *sim.Process, rank int) {
		c.Allreduce(p, rank, 100*units.KB)
		c.Bcast(p, rank, 2, 1000)
		c.Alltoall(p, rank, 5000)
		if rank == 0 {
			c.Send(p, 0, 1, 9, 100)
		}
		if rank == 1 {
			c.Recv(p, 1, 0, 9)
		}
	})
	if diags := c.Audit(); len(diags) != 0 {
		t.Fatalf("clean schedule audited dirty: %v", diags)
	}
	var sent, recvd uint64
	for r := 0; r < n; r++ {
		sent += c.Messages(r)
		recvd += c.Receives(r)
	}
	if sent == 0 || sent != recvd {
		t.Fatalf("counters: %d sent, %d received", sent, recvd)
	}
}

// A send nobody receives must surface as both a count imbalance and a
// named leftover inbox entry.
func TestAuditFlagsUnreceivedMessage(t *testing.T) {
	e, c := build(2, network.GigE)
	runRanks(e, 2, func(p *sim.Process, rank int) {
		if rank == 0 {
			c.Send(p, 0, 1, 42, 1000)
		}
	})
	diags := c.Audit()
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (imbalance + leftover inbox), got %v", diags)
	}
	if !strings.Contains(diags[0], "1 sent vs 0 received") {
		t.Errorf("imbalance diagnostic missing: %q", diags[0])
	}
	if !strings.Contains(diags[1], "rank 1 inbox holds 1 unreceived message(s) from rank 0 with tag 42") {
		t.Errorf("leftover diagnostic missing rank/tag/src: %q", diags[1])
	}
}

// Leftover messages are reported by rank, then by source, then by tag,
// whatever order they arrived in.
func TestAuditOrdersLeftoversByRankSourceTag(t *testing.T) {
	e, c := build(3, network.GigE)
	runRanks(e, 3, func(p *sim.Process, rank int) {
		switch rank {
		case 0:
			p.Sleep(0.1)
			for _, tag := range []int{9, 4, 4} {
				c.Send(p, 0, 2, tag, 100)
			}
			c.Send(p, 0, 1, 8, 100)
		case 1:
			c.Send(p, 1, 2, 3, 100)
		}
	})
	want := []string{
		"message counts do not balance: 5 sent vs 0 received",
		"rank 1 inbox holds 1 unreceived message(s) from rank 0 with tag 8",
		"rank 2 inbox holds 2 unreceived message(s) from rank 0 with tag 4",
		"rank 2 inbox holds 1 unreceived message(s) from rank 0 with tag 9",
		"rank 2 inbox holds 1 unreceived message(s) from rank 1 with tag 3",
	}
	if diags := c.Audit(); fmt.Sprint(diags) != fmt.Sprint(want) {
		t.Fatalf("audit = %q, want %q", diags, want)
	}
}

// Receivers still blocked when a RunUntil horizon stops the run are
// named in rank order, with the rank and tag each waits on.
func TestAuditFlagsSuspendedReceivers(t *testing.T) {
	e, c := build(3, network.GigE)
	e.Spawn("rank0", func(p *sim.Process) {
		p.Sleep(10) // past the horizon
		c.Send(p, 0, 1, 5, 100)
	})
	e.Spawn("rank2", func(p *sim.Process) { c.Recv(p, 2, 1, 7) })
	e.Spawn("rank1", func(p *sim.Process) { c.Recv(p, 1, 0, 5) })
	e.RunUntil(1)
	want := []string{
		"rank 1 still has 1 receiver(s) suspended waiting on rank 0 tag 5",
		"rank 2 still has 1 receiver(s) suspended waiting on rank 1 tag 7",
	}
	if diags := c.Audit(); fmt.Sprint(diags) != fmt.Sprint(want) {
		t.Fatalf("audit = %q, want %q", diags, want)
	}
}

// A rank is one blocking process, so it has at most one receive blocked;
// a second process posting a receive for the same rank is a model bug.
func TestSecondBlockedReceivePanics(t *testing.T) {
	e, c := build(2, network.GigE)
	e.Spawn("a", func(p *sim.Process) { c.Recv(p, 1, 0, 5) })
	e.Spawn("b", func(p *sim.Process) { c.Recv(p, 1, 0, 6) })
	defer func() {
		want := "mpi: rank 1 posted a receive from rank 0 tag 6 while one from rank 0 tag 5 is blocked"
		if r := recover(); fmt.Sprint(r) != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	e.Run()
}

// Sendrecv's declared receive size is validated against the peer's actual
// send under checking — the bug this PR fixes silently discarded it.
func TestSendrecvSizeMismatchAudited(t *testing.T) {
	e, c := build(2, network.TenGigE)
	c.SetChecking(true)
	runRanks(e, 2, func(p *sim.Process, rank int) {
		peer := 1 - rank
		sendBytes := 1000.0
		if rank == 1 {
			sendBytes = 2000 // asymmetric: rank 0's declared 1000 is wrong
		}
		c.Sendrecv(p, rank, peer, peer, 5, sendBytes, 1000)
	})
	diags := c.Audit()
	if len(diags) != 1 {
		t.Fatalf("want exactly the size-mismatch diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0], "rank 0 expected 1000 bytes from rank 1 (tag 5) but the sender delivered 2000") {
		t.Errorf("mismatch diagnostic wrong: %q", diags[0])
	}
}

// Without checking, a size mismatch is tolerated silently (the historical
// behaviour): timing comes from the sender and the audit stays clean.
func TestSendrecvSizeMismatchIgnoredWithoutChecking(t *testing.T) {
	e, c := build(2, network.TenGigE)
	runRanks(e, 2, func(p *sim.Process, rank int) {
		peer := 1 - rank
		sendBytes := 1000.0
		if rank == 1 {
			sendBytes = 2000
		}
		c.Sendrecv(p, rank, peer, peer, 5, sendBytes, 1000)
	})
	if diags := c.Audit(); len(diags) != 0 {
		t.Fatalf("unchecked run should audit clean, got %v", diags)
	}
}

// The size check must fire on both match orders: sender-first (message
// waits in the inbox) and receiver-first (receiver suspended as a waiter).
func TestSendrecvMismatchBothMatchOrders(t *testing.T) {
	for _, receiverFirst := range []bool{false, true} {
		e, c := build(2, network.TenGigE)
		c.SetChecking(true)
		runRanks(e, 2, func(p *sim.Process, rank int) {
			if rank == 0 {
				if !receiverFirst {
					p.Sleep(1) // let the send land in the inbox first
				}
				recvExpect(c, p, 0, 1, 7, 500)
			} else {
				if receiverFirst {
					p.Sleep(1) // let the receive suspend first
				}
				c.Send(p, 1, 0, 7, 900)
			}
		})
		diags := c.Audit()
		if len(diags) != 1 || !strings.Contains(diags[0], "expected 500 bytes") {
			t.Fatalf("receiverFirst=%v: want one mismatch diagnostic, got %v", receiverFirst, diags)
		}
	}
}

// Bcast must consume the same number of collective tags on its small and
// large paths: a mixed-size sequence (large, small, large) keeps every
// rank's tag counter in lockstep and matches cleanly.
func TestBcastMixedSizesKeepTagsInLockstep(t *testing.T) {
	for _, n := range []int{3, 4, 7, 8} {
		e, c := build(n, network.TenGigE)
		c.SetChecking(true)
		done := 0
		runRanks(e, n, func(p *sim.Process, rank int) {
			c.Bcast(p, rank, 0, float64(BcastLargeThreshold)*4) // van de Geijn
			c.Bcast(p, rank, 1, 1000)                           // binomial
			c.Bcast(p, rank, 0, float64(BcastLargeThreshold))   // van de Geijn again
			c.Allreduce(p, rank, 64)                            // must still match
			done++
		})
		if done != n {
			t.Fatalf("n=%d: only %d ranks finished the mixed-size sequence", n, done)
		}
		if diags := c.Audit(); len(diags) != 0 {
			t.Fatalf("n=%d: mixed-size bcasts broke the schedule: %v", n, diags)
		}
		for r := 1; r < n; r++ {
			if c.cseq[r] != c.cseq[0] {
				t.Fatalf("n=%d: rank %d consumed %d tags, rank 0 consumed %d", n, r, c.cseq[r], c.cseq[0])
			}
		}
		// Both paths must burn exactly two tags per Bcast. A power-of-two
		// allreduce consumes one; the fallback composes reduce (1) + bcast (2).
		want := 3*2 + 1
		if n&(n-1) != 0 {
			want = 3*2 + 3
		}
		if c.cseq[0] != want {
			t.Fatalf("n=%d: 3 bcasts + 1 allreduce consumed %d tags, want %d", n, c.cseq[0], want)
		}
	}
}
