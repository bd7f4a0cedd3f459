package network

import (
	"testing"

	"clustersoc/internal/obs"
	"clustersoc/internal/sim"
)

// deliverScript books the same message pattern on a network and collects
// every Deliver return value: inter-node, intra-node, fan-in, fan-out.
func deliverScript(nw *Network) []float64 {
	var out []float64
	collect := func(a, b, c float64) {
		out = append(out, a, b, c)
	}
	collect(nw.Deliver(0, 1, 64<<10))
	collect(nw.Deliver(0, 2, 1<<20))
	collect(nw.Deliver(1, 1, 4<<10)) // intra-node loopback
	collect(nw.Deliver(2, 0, 128))
	collect(nw.Deliver(1, 0, 256<<10))
	return out
}

// TestInstrumentationDoesNotChangeDelivery locks in the zero-overhead
// contract at the network layer: an instrumented network books every
// message at exactly the times an uninstrumented one does.
func TestInstrumentationDoesNotChangeDelivery(t *testing.T) {
	plain := New(sim.NewEngine(), 3, TenGigE)
	instr := New(sim.NewEngine(), 3, TenGigE)
	instr.Instrument(obs.NewRegistry().Scope("network"))

	a := deliverScript(plain)
	b := deliverScript(instr)
	if len(a) != len(b) {
		t.Fatalf("return counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Deliver return %d differs: %g (plain) vs %g (instrumented)", i, a[i], b[i])
		}
	}
	if plain.FabricBytes() != instr.FabricBytes() || plain.Messages() != instr.Messages() {
		t.Fatalf("accounting differs: fabric %g/%g, messages %d/%d",
			plain.FabricBytes(), instr.FabricBytes(), plain.Messages(), instr.Messages())
	}
}

func TestInstrumentNilIsNoOp(t *testing.T) {
	nw := New(sim.NewEngine(), 2, GigE)
	nw.Instrument(nil)
	nw.Deliver(0, 1, 1024)
	nw.PublishMetrics(nil) // also a no-op
}

func TestMessageSizeHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	nw := New(sim.NewEngine(), 3, TenGigE)
	nw.Instrument(reg.Scope("network"))
	deliverScript(nw)

	h, ok := reg.Snapshot().Get("network.message_size_bytes")
	if !ok {
		t.Fatalf("message_size_bytes histogram not registered")
	}
	if h.Count != 5 {
		t.Fatalf("histogram observed %d messages, want 5", h.Count)
	}
	wantSum := float64(64<<10 + 1<<20 + 4<<10 + 128 + 256<<10)
	if h.Sum != wantSum {
		t.Fatalf("histogram sum = %g, want %g", h.Sum, wantSum)
	}
}

func TestPublishMetricsPerPort(t *testing.T) {
	reg := obs.NewRegistry()
	nw := New(sim.NewEngine(), 3, TenGigE)
	nw.Instrument(reg.Scope("network"))
	deliverScript(nw)
	nw.PublishMetrics(reg.Scope("network"))
	snap := reg.Snapshot()

	if got := snap.Value("network.messages"); got != 5 {
		t.Fatalf("network.messages = %g, want 5", got)
	}
	wantFabric := float64(64<<10 + 1<<20 + 128 + 256<<10) // loopback excluded
	if got := snap.Value("network.fabric_bytes"); got != wantFabric {
		t.Fatalf("network.fabric_bytes = %g, want %g", got, wantFabric)
	}
	if got := snap.Value("network.port0.tx_bytes"); got != float64(64<<10+1<<20) {
		t.Fatalf("port0 tx_bytes = %g", got)
	}
	if got := snap.Value("network.port1.loop_bytes"); got != float64(4<<10) {
		t.Fatalf("port1 loop_bytes = %g", got)
	}
	if got := snap.Value("network.port0.tx_busy_s"); got != nw.TXBusy(0) {
		t.Fatalf("port0 tx_busy_s = %g, want %g", got, nw.TXBusy(0))
	}
	if got := snap.Value("network.port0.rx_busy_s"); got != nw.RXBusy(0) {
		t.Fatalf("port0 rx_busy_s = %g, want %g", got, nw.RXBusy(0))
	}
	// Two messages booked back-to-back from node 0 at t=0: the second one
	// queues behind the first, so the TX queued-bytes high-water is
	// positive on an instrumented run.
	if got := snap.Value("network.port0.tx_queued_bytes_hw"); got <= 0 {
		t.Fatalf("port0 tx_queued_bytes_hw = %g, want > 0", got)
	}
}
