package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// A step runs once at the call and once at each wake-up it arranges, on
// the driving goroutine; the body resumes once, when the step is done.
func TestAwaitRunsStepAtEachWakeup(t *testing.T) {
	e := NewEngine()
	var calls []float64
	resumed := 0
	e.Spawn("awaiter", func(p *Process) {
		p.Await(func() bool {
			calls = append(calls, p.Now())
			if len(calls) == 4 {
				return true
			}
			e.ResumeAt(p.Now()+1, p)
			return false
		})
		resumed++
		if p.Now() != 3 {
			t.Errorf("body resumed at t=%v, want 3", p.Now())
		}
	})
	// A second process keeps the loop busy, so the steps run while other
	// goroutines drive.
	e.Spawn("ticker", func(p *Process) {
		for i := 0; i < 8; i++ {
			p.Sleep(0.5)
		}
	})
	e.Run()
	if want := []float64{0, 1, 2, 3}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Fatalf("step ran at %v, want %v", calls, want)
	}
	if resumed != 1 {
		t.Fatalf("body resumed %d times, want 1", resumed)
	}
	// Switches: two first activations, eight Sleep returns, one Await
	// return; the three intermediate wake-ups ran the step in place.
	if got := e.Switches(); got != 11 {
		t.Fatalf("Switches() = %d, want 11", got)
	}
	// Events: two activations, eight sleeps and the step's three
	// wake-ups.
	if got := e.Events(); got != 13 {
		t.Fatalf("Events() = %d, want 13", got)
	}
}

// A step that completes at the call never parks the process.
func TestAwaitDoneAtOnceDoesNotPark(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) {
		p.Await(func() bool { return true })
		if p.Now() != 0 {
			t.Errorf("now %v after an immediate Await", p.Now())
		}
	})
	e.Run()
	if e.Switches() != 1 || e.Events() != 1 {
		t.Fatalf("switches %d, events %d; want 1 and 1 (the activation only)", e.Switches(), e.Events())
	}
}

// Block accounts the wait until the next wake-up exactly as Suspend does,
// per process and in the engine total.
func TestBlockAccountsLikeSuspend(t *testing.T) {
	run := func(await bool) (proc, eng float64, events uint64) {
		e := NewEngine()
		var target *Process
		target = e.Spawn("target", func(p *Process) {
			p.Sleep(0.1)
			if await {
				n := 0
				p.Await(func() bool {
					if n++; n == 1 {
						p.Block()
						return false
					}
					return true
				})
			} else {
				p.Suspend()
			}
		})
		e.Spawn("waker", func(p *Process) {
			p.Sleep(0.3 + 1e-9)
			e.ResumeAt(p.Now()+0.7, target)
		})
		e.Run()
		return target.BlockedSeconds(), e.BlockedSeconds(), e.Events()
	}
	sp, se, sev := run(false)
	ap, ae, aev := run(true)
	if math.Float64bits(sp) != math.Float64bits(ap) || math.Float64bits(se) != math.Float64bits(ae) {
		t.Fatalf("blocked time: Suspend %v/%v, Await+Block %v/%v", sp, se, ap, ae)
	}
	if sp == 0 || sev != aev {
		t.Fatalf("blocked %v, events %d vs %d", sp, sev, aev)
	}
}

// A panic inside a step surfaces on the Run caller, whichever goroutine
// ran the step: the awaiting process's own (it drives the loop when its
// wake-up is next), another process's, or the Run caller's.
func TestAwaitStepPanicSurfacesOnRun(t *testing.T) {
	for _, driver := range []string{"self", "process", "caller"} {
		func() {
			e := NewEngine()
			e.Spawn("awaiter", func(p *Process) {
				n := 0
				p.Await(func() bool {
					if n++; n == 2 {
						panic("step failed")
					}
					e.ResumeAt(1, p)
					return false
				})
			})
			switch driver {
			case "process":
				// Parked in Sleep while the awaiter's wake-up pops, so
				// this goroutine drives the step.
				e.Spawn("driver", func(p *Process) { p.Sleep(2) })
			case "caller":
				// The loop pauses with the wake-up pending, so the next
				// Run drives it from the caller's goroutine.
				e.RunUntil(0.5)
			}
			defer func() {
				if r := recover(); fmt.Sprint(r) != "step failed" {
					t.Fatalf("driver %s: recovered %v, want the step's panic", driver, r)
				}
			}()
			e.Run()
			t.Fatalf("driver %s: Run returned after a step panicked", driver)
		}()
	}
}

// A step that blocks and is never woken leaves the process parked: Run
// reports the usual deadlock.
func TestAwaitNeverDoneDeadlocks(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Process) {
		p.Await(func() bool {
			p.Block()
			return false
		})
		t.Error("body resumed although the step never finished")
	})
	defer func() {
		r := recover()
		if !strings.Contains(fmt.Sprint(r), "sim: deadlock: 1 process(es) blocked") {
			t.Fatalf("recovered %v, want the deadlock diagnostic", r)
		}
	}()
	e.Run()
}

// A SpawnStep process lives as one step on the event loop: it is
// activated like a spawned body, its wake-ups are events, it is never
// switched in, and it is done when the step reports true.
func TestSpawnStepRunsOnTheLoop(t *testing.T) {
	e := NewEngine()
	var at []float64
	var p *Process
	p = e.SpawnStep("helper", func() bool {
		at = append(at, p.Now())
		if len(at) == 3 {
			return true
		}
		p.WakeAfter(0.5)
		return false
	})
	e.Spawn("body", func(q *Process) { q.Sleep(2) })
	e.Run()
	if fmt.Sprint(at) != "[0 0.5 1]" || !p.Done() {
		t.Fatalf("step ran at %v (done %v), want [0 0.5 1] and done", at, p.Done())
	}
	// Events: two activations, the helper's two wake-ups, one Sleep.
	// Switches: the body's activation and its Sleep return only.
	if e.Events() != 5 || e.Switches() != 2 {
		t.Fatalf("events %d, switches %d; want 5 and 2", e.Events(), e.Switches())
	}
}

// TryAcquire and TryWait take or register; a step that Blocks on them is
// woken by Release and Open, and its wait is accounted as blocked time,
// as a process blocking on the resource and then the gate would be: the
// waiter is granted the unit at 1 s, passes the gate at 2 s, and has
// spent both seconds blocked.
func TestTryAcquireAndTryWaitBlockLikeTheirBlockingForms(t *testing.T) {
	e := NewEngine()
	r := NewResource(1)
	var g Gate
	e.Spawn("holder", func(p *Process) {
		if !r.TryAcquire(p) {
			t.Error("a free unit was not granted at once")
		}
		p.Sleep(1)
		r.Release(e)
		p.Sleep(1)
		g.Open(e)
	})
	var w *Process
	var at []float64
	phase := 0
	w = e.SpawnStep("waiter", func() bool {
		switch phase {
		case 0:
			phase = 1
			if !r.TryAcquire(w) {
				w.Block()
				return false
			}
			fallthrough
		case 1:
			at = append(at, w.Now())
			phase = 2
			if !g.TryWait(w) {
				w.Block()
				return false
			}
		}
		at = append(at, w.Now())
		return true
	})
	e.Run()
	if fmt.Sprint(at) != "[1 2]" {
		t.Fatalf("granted and passed at %v, want [1 2]", at)
	}
	if w.BlockedSeconds() != 2 || e.BlockedSeconds() != 2 {
		t.Fatalf("blocked %v (engine %v), want 2", w.BlockedSeconds(), e.BlockedSeconds())
	}
}
