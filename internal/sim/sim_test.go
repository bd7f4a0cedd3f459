package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(2.0, func() { got = append(got, 2) })
	e.Schedule(1.0, func() { got = append(got, 1) })
	e.Schedule(3.0, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 3.0 {
		t.Fatalf("final time = %v, want 3", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() {
		e.Schedule(-3, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 5 {
		t.Fatalf("time went backwards: %v", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	e.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("RunUntil processed %d events, want 5", count)
	}
	if e.Now() != 5.5 {
		t.Fatalf("Now = %v, want 5.5", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("Run processed %d events total, want 10", count)
	}
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var wake []float64
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Sleep(1.5)
			wake = append(wake, p.Now())
		}
	})
	e.Run()
	want := []float64{1.5, 3.0, 4.5}
	for i, w := range want {
		if !almostEqual(wake[i], w) {
			t.Fatalf("wake times = %v, want %v", wake, want)
		}
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		e.Spawn("a", func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Sleep(1)
				log = append(log, "a")
			}
		})
		e.Spawn("b", func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Sleep(1)
				log = append(log, "b")
			}
		})
		e.Run()
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestSignalFireWakesAllWaitersInOrder(t *testing.T) {
	e := NewEngine()
	var sig Signal
	var woke []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		e.Spawn(name, func(p *Process) {
			sig.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Spawn("firer", func(p *Process) {
		p.Sleep(2)
		sig.Fire(e)
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d, want 3", len(woke))
	}
	for i, w := range []string{"p0", "p1", "p2"} {
		if woke[i] != w {
			t.Fatalf("wake order %v", woke)
		}
	}
}

func TestGateLevelTriggered(t *testing.T) {
	e := NewEngine()
	var g Gate
	passed := 0
	e.Spawn("early", func(p *Process) {
		g.Wait(p) // blocks until open
		passed++
	})
	e.Spawn("opener", func(p *Process) {
		p.Sleep(1)
		g.Open(e)
	})
	e.Spawn("late", func(p *Process) {
		p.Sleep(2)
		g.Wait(p) // already open: returns immediately
		passed++
	})
	e.Run()
	if passed != 2 {
		t.Fatalf("passed = %d, want 2", passed)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("w", func(p *Process) {
			p.Sleep(float64(i) * 0.001) // stagger arrival
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(1)
			r.Release(e)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("resource not FIFO: %v", order)
		}
	}
	if got := r.BusyTime(e); !almostEqual(got, 4.0) {
		t.Fatalf("busy time = %v, want 4", got)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(2)
	var finish []float64
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Process) {
			r.Acquire(p)
			p.Sleep(1)
			r.Release(e)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	sort.Float64s(finish)
	want := []float64{1, 1, 2, 2}
	for i := range want {
		if !almostEqual(finish[i], want[i]) {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
}

func TestPipeSingleTransfer(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "link", 100, 0.5) // 100 B/s, 0.5 s latency
	var doneAt float64
	e.Spawn("tx", func(p *Process) {
		pp.Transfer(p, 200)
		doneAt = p.Now()
	})
	e.Run()
	if !almostEqual(doneAt, 2.5) {
		t.Fatalf("transfer done at %v, want 2.5", doneAt)
	}
	if pp.Bytes() != 200 {
		t.Fatalf("bytes = %v", pp.Bytes())
	}
}

func TestPipeFIFOQueueing(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "link", 100, 0) // 100 B/s, no latency
	var done []float64
	for i := 0; i < 3; i++ {
		e.Spawn("tx", func(p *Process) {
			pp.Transfer(p, 100) // 1 s each, serialized
			done = append(done, p.Now())
		})
	}
	e.Run()
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEqual(done[i], want[i]) {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestPipeLatencyIsPipelined(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "link", 100, 10) // huge latency, small service time
	var done []float64
	for i := 0; i < 2; i++ {
		e.Spawn("tx", func(p *Process) {
			pp.Transfer(p, 100)
			done = append(done, p.Now())
		})
	}
	e.Run()
	// Service times serialize (1 s each) but the 10 s latency overlaps:
	// completions at 11 and 12, not 11 and 22.
	if !almostEqual(done[0], 11) || !almostEqual(done[1], 12) {
		t.Fatalf("done = %v, want [11 12]", done)
	}
}

func TestPipeRateCap(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "dram", 1000, 0)
	var doneAt float64
	e.Spawn("cpu", func(p *Process) {
		pp.TransferRated(p, 1000, 250) // capped at 250 B/s -> 4 s
		doneAt = p.Now()
	})
	e.Run()
	if !almostEqual(doneAt, 4) {
		t.Fatalf("done at %v, want 4", doneAt)
	}
}

func TestPipeTransferEventNonBlocking(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, "link", 100, 0)
	var cbAt float64
	e.Spawn("tx", func(p *Process) {
		finish := pp.TransferEvent(100, 0, func() { cbAt = e.Now() })
		if !almostEqual(finish, 1) {
			t.Errorf("predicted finish %v, want 1", finish)
		}
		// The caller is free immediately.
		if p.Now() != 0 {
			t.Errorf("caller blocked")
		}
	})
	e.Run()
	if !almostEqual(cbAt, 1) {
		t.Fatalf("callback at %v, want 1", cbAt)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	var sig Signal
	e.Spawn("stuck", func(p *Process) { sig.Wait(p) })
	e.Run()
}

// Property: for any batch of same-priority transfers, a FIFO pipe conserves
// bytes and the last completion equals total service time (no latency).
func TestPipeConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		e := NewEngine()
		pp := NewPipe(e, "link", 1000, 0)
		total := 0.0
		var last float64
		for _, s := range sizes {
			b := float64(s) + 1
			total += b
			e.Spawn("tx", func(p *Process) {
				pp.Transfer(p, b)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		return almostEqual(pp.Bytes(), total) && almostEqual(last, total/1000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: event timestamps observed by a process are non-decreasing for
// arbitrary sleep sequences.
func TestMonotonicClockProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		ok := true
		e.Spawn("p", func(p *Process) {
			prev := 0.0
			for _, d := range delays {
				p.Sleep(float64(d) / 255.0)
				if p.Now() < prev {
					ok = false
				}
				prev = p.Now()
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineIntrospection(t *testing.T) {
	e := NewEngine()
	if !e.Idle() {
		t.Fatal("fresh engine should be idle")
	}
	e.Schedule(1, func() {})
	if e.Idle() {
		t.Fatal("scheduled engine is not idle")
	}
	e.Run()
	if e.Events() != 1 {
		t.Fatalf("events = %d", e.Events())
	}
	pp := NewPipe(e, "p", 100, 0.5)
	if got := pp.EstimateOnly(100); got != 1.5 {
		t.Fatalf("estimate %v", got)
	}
	if got := pp.EstimateOnly(0); got != 0.5 {
		t.Fatalf("zero-byte estimate %v", got)
	}
	e.Spawn("t", func(p *Process) { pp.Transfer(p, 200) })
	e.Run()
	if pp.Transfers() != 1 || pp.BusyTime() != 2 {
		t.Fatalf("pipe stats: %d transfers, %v busy", pp.Transfers(), pp.BusyTime())
	}
	if u := pp.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v", u)
	}
}

// TestStaleWakeExcludedFromEvents pins that drive does not count wake-ups
// of finished processes toward Events(), and tracks them in StaleWakes
// instead.
func TestStaleWakeExcludedFromEvents(t *testing.T) {
	e := NewEngine()
	var target *Process
	target = e.Spawn("short", func(p *Process) { p.Suspend() })
	e.Spawn("waker", func(p *Process) {
		p.Sleep(1e-5)
		e.Resume(target)
		e.Resume(target)
		e.Resume(target)
	})
	e.Run()
	// Events: 2 spawn wakes + waker's sleep wake + target's (useful)
	// resume + waker finishing its body = deterministic; the two stale
	// resumes must not be in it.
	if got := e.StaleWakes(); got != 2 {
		t.Fatalf("StaleWakes() = %d, want 2", got)
	}
	// The same schedule with only one (useful) resume processes the same
	// number of *useful* events.
	e2 := NewEngine()
	var t2 *Process
	t2 = e2.Spawn("short", func(p *Process) { p.Suspend() })
	e2.Spawn("waker", func(p *Process) {
		p.Sleep(1e-5)
		e2.Resume(t2)
	})
	e2.Run()
	if e2.StaleWakes() != 0 {
		t.Fatalf("control run has %d stale wakes, want 0", e2.StaleWakes())
	}
	if e.Events() != e2.Events() {
		t.Fatalf("stale wakes leaked into Events(): %d (with stales) vs %d (without)",
			e.Events(), e2.Events())
	}
}
