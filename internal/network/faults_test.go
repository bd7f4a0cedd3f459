package network

import (
	"math"
	"testing"

	"clustersoc/internal/sim"
)

// fakeFlaps replays a fixed window list, then reports exhaustion.
type fakeFlaps struct {
	ws [][2]float64
	i  int
}

func (f *fakeFlaps) Next() (float64, float64) {
	if f.i >= len(f.ws) {
		return math.Inf(1), math.Inf(1)
	}
	w := f.ws[f.i]
	f.i++
	return w[0], w[1]
}

func TestLinkDerateSlowsService(t *testing.T) {
	e := sim.NewEngine()
	healthy := New(e, 2, TenGigE)
	degraded := New(e, 2, TenGigE)
	degraded.InjectLinkFaults(0, 0.5, nil)
	_, sfH, _ := healthy.Deliver(0, 1, 1e6)
	_, sfD, _ := degraded.Deliver(0, 1, 1e6)
	if got, want := sfD, 2*sfH; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("derated sender free at %g, want %g (half throughput)", got, want)
	}
	// The path rate is the min of both endpoints: degrading the receiver
	// must cost the same as degrading the sender.
	rxDeg := New(e, 2, TenGigE)
	rxDeg.InjectLinkFaults(1, 0.5, nil)
	if _, sfR, _ := rxDeg.Deliver(0, 1, 1e6); sfR != sfD {
		t.Fatalf("receiver-side derate gave %g, sender-side %g — path rate must be the min", sfR, sfD)
	}
}

func TestFlapWindowDelaysBooking(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	nw.InjectLinkFaults(0, 0, &fakeFlaps{ws: [][2]float64{{1, 2}}})
	var sf float64
	e.Spawn("sender", func(p *sim.Process) {
		p.SleepUntil(1.5) // inside the flap window
		_, sf, _ = nw.Deliver(0, 1, 1000)
		p.SleepUntil(sf)
	})
	e.Run()
	svc := 1000 / TenGigE.Throughput
	if want := 2 + svc; math.Abs(sf-want) > 1e-12 {
		t.Fatalf("sender free at %g, want %g (service pushed past the flap)", sf, want)
	}
	delays, seconds, cancelled := nw.FlapDelays()
	if delays != 1 || cancelled != 0 {
		t.Fatalf("flap delays = %d (cancelled %d), want 1 (0)", delays, cancelled)
	}
	if math.Abs(seconds-0.5) > 1e-12 {
		t.Fatalf("flap delay seconds = %g, want 0.5", seconds)
	}
}

func TestTrafficBeforeFlapUnaffected(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	nw.InjectLinkFaults(0, 0, &fakeFlaps{ws: [][2]float64{{10, 20}}})
	_, sf, _ := nw.Deliver(0, 1, 1000)
	if want := 1000 / TenGigE.Throughput; math.Abs(sf-want) > 1e-15 {
		t.Fatalf("pre-flap booking delayed: sender free %g, want %g", sf, want)
	}
}

func TestForceDownCancelsFlapRestore(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	nw.InjectLinkFaults(0, 0, &fakeFlaps{ws: [][2]float64{{1, 2}}})
	e.Spawn("sender", func(p *sim.Process) {
		p.SleepUntil(1.2)
		_, sf, _ := nw.Deliver(0, 1, 1000) // enters the flap, arms the restore timer for t=2
		_ = sf
		nw.ForceDown(0, 1.5, 4) // crash: NIC reset supersedes the flap recovery
		p.SleepUntil(3)
		_, sf2, _ := nw.Deliver(0, 1, 1000) // inside the outage window: pushed to 4
		if sf2 < 4 {
			p.Sleep(0) // keep determinism; assertion happens after Run
		}
		p.SleepUntil(sf2)
	})
	e.Run()
	_, _, cancelled := nw.FlapDelays()
	if cancelled != 1 {
		t.Fatalf("flap restores cancelled = %d, want 1 (ForceDown must stop the pending timer)", cancelled)
	}
	delays, seconds, _ := nw.FlapDelays()
	// Two delayed bookings: one by the flap (1.2 -> 2), one by the crash
	// outage (3 -> 4).
	if delays != 2 {
		t.Fatalf("delayed bookings = %d, want 2", delays)
	}
	if want := 0.8 + 1.0; math.Abs(seconds-want) > 1e-12 {
		t.Fatalf("delay seconds = %g, want %g", seconds, want)
	}
}

func TestDeliverAfterFloorsServiceStart(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	svc := 1000 / TenGigE.Throughput
	_, sf, arrival := nw.DeliverAfter(0, 1, 1000, 5)
	if want := 5 + svc; math.Abs(sf-want) > 1e-12 {
		t.Fatalf("sender free at %g, want %g (floored at 5)", sf, want)
	}
	if want := 5 + svc + TenGigE.Latency; math.Abs(arrival-want) > 1e-12 {
		t.Fatalf("arrival at %g, want %g", arrival, want)
	}
	// A floor in the past is a plain Deliver.
	nw2 := New(e, 2, TenGigE)
	if _, sf2, _ := nw2.DeliverAfter(0, 1, 1000, -3); sf2 != svc {
		t.Fatalf("past floor changed the booking: %g, want %g", sf2, svc)
	}
}

// TestIntraNodeFlapThenForceDownIterates pins the loopback admission fix:
// escaping a flap window on the intra-node memory path can land the
// service start inside a crash-outage (ForceDown) window, and a single
// admitOne pass would not re-check the forced windows after the move. The
// wire path has always iterated (admit); the loopback path must too.
func TestIntraNodeFlapThenForceDownIterates(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	// Flap [1,2) flows into outage [2,3): a booking floored at 1.5 escapes
	// the flap to 2, which is exactly inside the outage, and must end up
	// at 3.
	nw.InjectLinkFaults(0, 0, &fakeFlaps{ws: [][2]float64{{1, 2}}})
	nw.ForceDown(0, 2, 3)
	var sf float64
	e.Spawn("sender", func(p *sim.Process) {
		p.SleepUntil(1.5)
		_, sf, _ = nw.Deliver(0, 0, 1000) // src == dst: memory path
		p.SleepUntil(sf)
	})
	e.Run()
	svc := 1000 / MemoryPathBandwidth
	if want := 3 + svc; math.Abs(sf-want) > 1e-12 {
		t.Fatalf("loopback sender free at %g, want %g (start must clear both windows)", sf, want)
	}
	delays, seconds, _ := nw.FlapDelays()
	if delays != 2 {
		t.Fatalf("flap delays = %d, want 2 (one per window crossed)", delays)
	}
	if math.Abs(seconds-(0.5+1)) > 1e-12 {
		t.Fatalf("flap delay seconds = %g, want 1.5", seconds)
	}
}

// TestIntraNodeForceDownThenFlapIterates is the mirrored interleaving:
// the outage comes first and pushes the start into a later flap window.
func TestIntraNodeForceDownThenFlapIterates(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	nw.InjectLinkFaults(0, 0, &fakeFlaps{ws: [][2]float64{{2, 2.5}}})
	nw.ForceDown(0, 1, 2)
	var sf float64
	e.Spawn("sender", func(p *sim.Process) {
		p.SleepUntil(1.5)
		_, sf, _ = nw.Deliver(0, 0, 1000)
		p.SleepUntil(sf)
	})
	e.Run()
	svc := 1000 / MemoryPathBandwidth
	if want := 2.5 + svc; math.Abs(sf-want) > 1e-12 {
		t.Fatalf("loopback sender free at %g, want %g", sf, want)
	}
}

// TestDeliverAfterFloorInsideDownWindow pins DeliverAfter's interaction
// with the fault plane: an `earliest` floor landing inside a down window
// starts service at the window's end, not at the floor.
func TestDeliverAfterFloorInsideDownWindow(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 2, TenGigE)
	nw.ForceDown(0, 2, 3)
	var sf, arr float64
	e.Spawn("sender", func(p *sim.Process) {
		// Called at t=0 with a floor of 2.5 — inside the outage.
		_, sf, arr = nw.DeliverAfter(0, 1, 1000, 2.5)
		p.SleepUntil(sf)
	})
	e.Run()
	svc := 1000 / TenGigE.Throughput
	if want := 3 + svc; math.Abs(sf-want) > 1e-12 {
		t.Fatalf("sender free at %g, want %g (floor inside outage must slide to its end)", sf, want)
	}
	if want := 3 + svc + TenGigE.Latency; math.Abs(arr-want) > 1e-12 {
		t.Fatalf("arrival at %g, want %g", arr, want)
	}
	delays, seconds, _ := nw.FlapDelays()
	if delays != 1 || math.Abs(seconds-0.5) > 1e-12 {
		t.Fatalf("outage delay accounting = (%d, %g), want (1, 0.5)", delays, seconds)
	}
}
