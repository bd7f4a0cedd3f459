package network

import (
	"testing"

	"clustersoc/internal/obs"
	"clustersoc/internal/sim"
)

// queuedHW publishes the network's metrics and returns one port's
// queued-bytes high-water gauge.
func queuedHW(t *testing.T, nw *Network, gauge string) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	nw.PublishMetrics(reg.Scope("network"))
	return reg.Snapshot().Value("network." + gauge)
}

// A message booked on an idle port enters service immediately: nothing is
// queued behind the port, so the high-water mark must stay zero. The old
// accounting counted the in-service message itself as backlog.
func TestQueuedHighWaterZeroOnIdlePort(t *testing.T) {
	nw := New(sim.NewEngine(), 2, TenGigE)
	nw.Instrument(obs.NewRegistry().Scope("network"))
	nw.Deliver(0, 1, 1<<20)
	for _, g := range []string{"port0.tx_queued_bytes_hw", "port1.rx_queued_bytes_hw"} {
		if got := queuedHW(t, nw, g); got != 0 {
			t.Fatalf("%s = %g after a single message on an idle port, want 0", g, got)
		}
	}
}

// Back-to-back bookings at one instant: the first is in service, the rest
// are backlog. The high-water mark must count exactly the waiting bytes —
// not the in-service message.
func TestQueuedHighWaterCountsOnlyWaitingBytes(t *testing.T) {
	nw := New(sim.NewEngine(), 3, TenGigE)
	nw.Instrument(obs.NewRegistry().Scope("network"))
	nw.Deliver(0, 1, 1000) // in service at t=0
	nw.Deliver(0, 1, 2000) // queued
	nw.Deliver(0, 2, 4000) // queued behind both (TX port is the bottleneck)
	if got := queuedHW(t, nw, "port0.tx_queued_bytes_hw"); got != 6000 {
		t.Fatalf("tx_queued_bytes_hw = %g, want 6000 (the two waiting messages)", got)
	}
	// RX port 1 saw the same first two messages: only the second waited.
	if got := queuedHW(t, nw, "port1.rx_queued_bytes_hw"); got != 2000 {
		t.Fatalf("rx_queued_bytes_hw = %g, want 2000", got)
	}
}

// Once time advances past a booking's service start it is no longer
// backlog: a later idle-port booking must not resurrect drained bytes.
func TestQueuedBacklogDrainsWithTime(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	nw.Instrument(obs.NewRegistry().Scope("network"))
	e.Spawn("sender", func(p *sim.Process) {
		nw.Deliver(0, 1, 1000)
		nw.Deliver(0, 1, 2000)
		_, _, arrival := nw.Deliver(0, 1, 3000)
		p.SleepUntil(arrival + 1) // everything drained
		nw.Deliver(0, 1, 8000)    // idle port again: queues nothing
	})
	e.Run()
	if got := queuedHW(t, nw, "port0.tx_queued_bytes_hw"); got != 5000 {
		t.Fatalf("tx_queued_bytes_hw = %g, want 5000 (peak backlog of the first burst)", got)
	}
}

// The m.start > now boundary in markQueued, pinned from both sides. A
// booking whose service start equals the current instant is in service —
// counting it as backlog would double-count the message the port is
// draining right now.
func TestQueuedEqualTimeBookingIsInServiceNotBacklog(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	nw.Instrument(obs.NewRegistry().Scope("network"))
	e.Spawn("sender", func(p *sim.Process) {
		_, sf1, _ := nw.Deliver(0, 1, 1000) // in service at t=0
		nw.Deliver(0, 1, 2000)              // queued; enters service exactly at sf1
		p.SleepUntil(sf1)                   // now == the second booking's start, bit for bit
		nw.Deliver(0, 1, 4000)              // books behind the (now in-service) second message
	})
	e.Run()
	// At the third booking only the third message waits: the second's
	// start == now means it is on the wire. A >= boundary would have kept
	// it and recorded 6000.
	if got := queuedHW(t, nw, "port0.tx_queued_bytes_hw"); got != 4000 {
		t.Fatalf("tx_queued_bytes_hw = %g, want 4000 (equal-time booking is in service, not backlog)", got)
	}
}

// The other side of the boundary: a booking whose start is still strictly
// in the future must survive an intermediate markQueued prune — pruning
// it would drop waiting bytes from the high-water mark.
func TestQueuedFutureBookingNotDropped(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	nw.Instrument(obs.NewRegistry().Scope("network"))
	e.Spawn("sender", func(p *sim.Process) {
		_, sf1, _ := nw.Deliver(0, 1, 1000)
		nw.Deliver(0, 1, 2000) // waits until sf1
		p.SleepUntil(sf1 / 2)  // strictly before the second booking starts
		nw.Deliver(0, 1, 4000) // second message still waiting: 2000+4000 queued
	})
	e.Run()
	if got := queuedHW(t, nw, "port0.tx_queued_bytes_hw"); got != 6000 {
		t.Fatalf("tx_queued_bytes_hw = %g, want 6000 (future booking must stay in the backlog)", got)
	}
}

// The intra-node loop port uses the same accounting.
func TestQueuedHighWaterIntraNode(t *testing.T) {
	nw := New(sim.NewEngine(), 1, GigE)
	nw.Instrument(obs.NewRegistry().Scope("network"))
	nw.Deliver(0, 0, 500)
	if got := queuedHW(t, nw, "port0.tx_queued_bytes_hw"); got != 0 {
		t.Fatalf("loopback must not touch the TX high-water, got %g", got)
	}
	nw.Deliver(0, 0, 700) // queued behind the first loop transfer
	reg := obs.NewRegistry()
	nw.PublishMetrics(reg.Scope("network"))
	// The loop port publishes no dedicated gauge; assert via LoopBusy that
	// both transfers were booked, and that the wire gauges stayed zero.
	if nw.LoopBusy(0) <= 0 {
		t.Fatal("loop port never busy")
	}
	if got := reg.Snapshot().Value("network.port0.tx_queued_bytes_hw"); got != 0 {
		t.Fatalf("intra-node traffic leaked into the TX high-water: %g", got)
	}
}
