package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"clustersoc/internal/obs"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// The helpers below let a process body wait on a pipe, a resource or a
// gate through their step forms, as an Await step: the one way a process
// waits on them.

// transfer moves bytes through pp as p's step: book the transfer, resume
// at its completion.
func transfer(p *Process, pp *Pipe, bytes, rateCap float64) {
	booked := false
	p.Await(func() bool {
		if booked {
			return true
		}
		booked = true
		p.eng.ResumeAt(pp.TransferEvent(bytes, rateCap), p)
		return false
	})
}

// acquire takes a unit of r as p's step, queueing if none is free.
func acquire(p *Process, r *Resource) {
	queued := false
	p.Await(func() bool {
		if queued || r.TryAcquire(p) {
			// Release handed a queued p the unit with its wake-up.
			return true
		}
		queued = true
		p.Block()
		return false
	})
}

// wait waits for g to open as p's step.
func wait(p *Process, g *Gate) {
	p.Await(func() bool {
		if g.TryWait(p) {
			return true
		}
		p.Block()
		return false
	})
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

// Open wakes every waiter at the present time, in the order they called
// TryWait.
func TestGateOpenWakesWaitersInOrder(t *testing.T) {
	e := NewEngine()
	var g Gate
	var woke []string
	for _, name := range []string{"p0", "p1", "p2"} {
		e.Spawn(name, func(p *Process) {
			wait(p, &g)
			woke = append(woke, fmt.Sprintf("%s@%g", name, p.Now()))
		})
	}
	e.Spawn("opener", func(p *Process) {
		p.Sleep(2)
		g.Open(e)
	})
	e.Run()
	if fmt.Sprint(woke) != "[p0@2 p1@2 p2@2]" {
		t.Fatalf("woke %v, want [p0@2 p1@2 p2@2]", woke)
	}
}

func TestGateLevelTriggered(t *testing.T) {
	e := NewEngine()
	var g Gate
	var passed []float64
	e.Spawn("early", func(p *Process) {
		wait(p, &g) // blocks until open
		passed = append(passed, p.Now())
	})
	e.Spawn("opener", func(p *Process) {
		p.Sleep(1)
		g.Open(e)
		g.Open(e) // a second Open changes nothing
	})
	e.Spawn("late", func(p *Process) {
		p.Sleep(2)
		if !g.TryWait(p) { // already open: passes at once
			t.Error("TryWait on an open gate registered a waiter")
		}
		passed = append(passed, p.Now())
	})
	e.Run()
	if fmt.Sprint(passed) != "[1 2]" {
		t.Fatalf("passed at %v, want [1 2]", passed)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(1)
	var order []int
	var granted []float64
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("w", func(p *Process) {
			p.Sleep(float64(i) * 0.001) // stagger arrival
			acquire(p, r)
			order = append(order, i)
			granted = append(granted, p.Now())
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
	// Each waiter is granted the unit the instant its predecessor
	// releases it.
	for i, want := range []float64{0, 1, 2, 3} {
		if !almostEqual(granted[i], want) {
			t.Fatalf("granted at %v, want [0 1 2 3]", granted)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(2)
	var finish []float64
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Process) {
			acquire(p, r)
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
	pp := NewPipe(e, 100, 0.5) // 100 B/s, 0.5 s latency
	var doneAt float64
	e.Spawn("tx", func(p *Process) {
		transfer(p, pp, 200, 0)
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
	pp := NewPipe(e, 100, 0) // 100 B/s, no latency
	var done []float64
	for i := 0; i < 3; i++ {
		e.Spawn("tx", func(p *Process) {
			transfer(p, pp, 100, 0) // 1 s each, serialized
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
	pp := NewPipe(e, 100, 10) // huge latency, small service time
	var done []float64
	for i := 0; i < 2; i++ {
		e.Spawn("tx", func(p *Process) {
			transfer(p, pp, 100, 0)
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
	pp := NewPipe(e, 1000, 0)
	var doneAt float64
	e.Spawn("cpu", func(p *Process) {
		transfer(p, pp, 1000, 250) // capped at 250 B/s -> 4 s
		doneAt = p.Now()
	})
	e.Run()
	if !almostEqual(doneAt, 4) {
		t.Fatalf("done at %v, want 4", doneAt)
	}
}

// TransferEvent books the transfer and returns its completion time; it
// schedules nothing and blocks nobody. A second booking queues behind the
// first, and the wait is counted as queueing.
func TestPipeTransferEventNonBlocking(t *testing.T) {
	e := NewEngine()
	pp := NewPipe(e, 100, 0)
	e.Spawn("tx", func(p *Process) {
		first := pp.TransferEvent(100, 0)
		second := pp.TransferEvent(100, 0)
		if !almostEqual(first, 1) || !almostEqual(second, 2) {
			t.Errorf("predicted finishes %v and %v, want 1 and 2", first, second)
		}
		// The caller is free immediately.
		if p.Now() != 0 {
			t.Errorf("caller blocked")
		}
	})
	e.Run()
	if e.Now() != 0 || e.Events() != 1 {
		t.Fatalf("run ended at %v after %d events, want 0 and 1 (the activation only)", e.Now(), e.Events())
	}
	if pp.Bytes() != 200 || !almostEqual(pp.QueueWait(), 1) {
		t.Fatalf("bytes %v, queue wait %v; want 200 and 1", pp.Bytes(), pp.QueueWait())
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	e.Spawn("stuck", func(p *Process) { p.Suspend() })
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
		pp := NewPipe(e, 1000, 0)
		total := 0.0
		var last float64
		for _, s := range sizes {
			b := float64(s) + 1
			total += b
			e.Spawn("tx", func(p *Process) {
				transfer(p, pp, b, 0)
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
	e.Schedule(1, func() {})
	e.Run()
	if e.Events() != 1 {
		t.Fatalf("events = %d", e.Events())
	}
	pp := NewPipe(e, 100, 0.5)
	e.Spawn("t", func(p *Process) { transfer(p, pp, 200, 0) })
	e.Run()
	// The activation and the transfer's completion: 2 s of service and
	// 0.5 s of latency after t=1.
	if e.Events() != 3 || !almostEqual(e.Now(), 3.5) {
		t.Fatalf("events %d, now %v; want 3 and 3.5", e.Events(), e.Now())
	}
	if pp.Bytes() != 200 || pp.QueueWait() != 0 {
		t.Fatalf("pipe stats: %v bytes, %v queued", pp.Bytes(), pp.QueueWait())
	}
}

// staleWakes reads the engine's stale-wake count the way the profile
// does, through PublishMetrics.
func staleWakes(e *Engine) float64 {
	reg := obs.NewRegistry()
	e.PublishMetrics(reg.Scope("sim"))
	return reg.Snapshot().Value("sim.stale_wakes")
}

// TestStaleWakeExcludedFromEvents pins that drive does not count wake-ups
// of finished processes toward Events(), and publishes them as
// stale_wakes instead.
func TestStaleWakeExcludedFromEvents(t *testing.T) {
	e := NewEngine()
	var target *Process
	target = e.Spawn("short", func(p *Process) { p.Suspend() })
	e.Spawn("waker", func(p *Process) {
		p.Sleep(1e-5)
		e.ResumeAt(p.Now(), target)
		e.ResumeAt(p.Now(), target)
		e.ResumeAt(p.Now(), target)
	})
	e.Run()
	// Events: 2 spawn wakes + waker's sleep wake + target's (useful)
	// resume + waker finishing its body = deterministic; the two stale
	// resumes must not be in it.
	if got := staleWakes(e); got != 2 {
		t.Fatalf("stale_wakes = %g, want 2", got)
	}
	// The same schedule with only one (useful) resume processes the same
	// number of *useful* events.
	e2 := NewEngine()
	var t2 *Process
	t2 = e2.Spawn("short", func(p *Process) { p.Suspend() })
	e2.Spawn("waker", func(p *Process) {
		p.Sleep(1e-5)
		e2.ResumeAt(p.Now(), t2)
	})
	e2.Run()
	if got := staleWakes(e2); got != 0 {
		t.Fatalf("control run has %g stale wakes, want 0", got)
	}
	if e.Events() != e2.Events() {
		t.Fatalf("stale wakes leaked into Events(): %d (with stales) vs %d (without)",
			e.Events(), e2.Events())
	}
}
