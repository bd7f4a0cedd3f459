package network

import (
	"math"
	"testing"
	"testing/quick"

	"clustersoc/internal/sim"
	"clustersoc/internal/units"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

// A single large stream should achieve the profile's effective throughput,
// the way iperf measures it between two TX1 nodes.
func TestIperfStyleThroughput(t *testing.T) {
	for _, prof := range []Profile{GigE, TenGigE} {
		e := sim.NewEngine()
		nw := New(e, 2, prof)
		total := 1.0 * units.GB
		_, _, arrival := nw.Deliver(0, 1, total)
		e.Run()
		gbps := total * 8 / arrival / 1e9
		want := prof.Throughput * 8 / 1e9
		if !approx(gbps, want, 0.01) {
			t.Errorf("%s: measured %.3f Gb/s, want ~%.3f", prof.Name, gbps, want)
		}
	}
}

// Ping-pong: RTT of a tiny message is twice the one-way latency. The paper
// measures 200 us on 1 GbE and 50 us on 10 GbE.
func TestPingPongLatency(t *testing.T) {
	cases := []struct {
		prof Profile
		rtt  float64
	}{{GigE, 200 * units.Microsecond}, {TenGigE, 50 * units.Microsecond}}
	for _, c := range cases {
		e := sim.NewEngine()
		nw := New(e, 2, c.prof)
		_, _, a1 := nw.Deliver(0, 1, 1)
		e.ScheduleAt(a1, func() {})
		e.Run()
		// reply
		_, _, a2 := nw.Deliver(1, 0, 1)
		rtt := a2
		if rtt > c.rtt*1.05 || rtt < c.rtt*0.95 {
			t.Errorf("%s: rtt %.1f us, want ~%.1f", c.prof.Name, rtt/units.Microsecond, c.rtt/units.Microsecond)
		}
		e.Run()
	}
}

// Incast: N senders to one receiver serialize on the receiver's RX port.
func TestIncastSerializes(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 5, GigE)
	bytes := 10 * units.MB
	last := 0.0
	for s := 1; s < 5; s++ {
		_, _, a := nw.Deliver(s, 0, bytes)
		if a > last {
			last = a
		}
	}
	single := bytes/GigE.Throughput + GigE.Latency
	if !approx(last, 4*bytes/GigE.Throughput+GigE.Latency, 0.01) {
		t.Errorf("incast completion %.4f, want ~%.4f (4x single %.4f)", last, 4*bytes/GigE.Throughput, single)
	}
}

// Disjoint pairs run in parallel: (0->1) and (2->3) don't interfere.
func TestDisjointPairsParallel(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 4, TenGigE)
	bytes := 10 * units.MB
	_, _, a1 := nw.Deliver(0, 1, bytes)
	_, _, a2 := nw.Deliver(2, 3, bytes)
	if !approx(a1, a2, 1e-9) {
		t.Errorf("disjoint transfers serialized: %v vs %v", a1, a2)
	}
}

// Intra-node messages use the memory path, far faster than any NIC.
func TestIntraNodePath(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, GigE)
	bytes := 10 * units.MB
	_, _, mem := nw.Deliver(0, 0, bytes)
	_, _, net := nw.Deliver(0, 1, bytes)
	if mem >= net {
		t.Errorf("memory path (%v) not faster than network (%v)", mem, net)
	}
	if nw.IntraNodeBytes(0) != bytes {
		t.Errorf("intra-node bytes = %v", nw.IntraNodeBytes(0))
	}
	if nw.BytesSent(0) != bytes {
		t.Errorf("wire bytes = %v, want only the inter-node message", nw.BytesSent(0))
	}
}

// Property: byte accounting balances — everything sent over the wire is
// received, and fabric bytes match.
func TestByteConservationProperty(t *testing.T) {
	f := func(pairs []struct {
		S, D uint8
		B    uint16
	}) bool {
		e := sim.NewEngine()
		nw := New(e, 4, GigE)
		var wire float64
		for _, pr := range pairs {
			s, d := int(pr.S%4), int(pr.D%4)
			b := float64(pr.B) + 1
			nw.Deliver(s, d, b)
			if s != d {
				wire += b
			}
		}
		var sent, recv float64
		for n := 0; n < 4; n++ {
			sent += nw.BytesSent(n)
			recv += nw.BytesReceived(n)
		}
		return sent == recv && sent == wire && nw.FabricBytes() == wire
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The ideal profile used by replay is effectively free.
func TestIdealProfile(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, Ideal)
	_, _, a := nw.Deliver(0, 1, 1*units.GB)
	if a > 1e-5 {
		t.Errorf("ideal network took %v", a)
	}
}
