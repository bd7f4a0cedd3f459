package sim

import (
	"math"
	"strings"
	"testing"

	"clustersoc/internal/obs"
)

func TestScheduleClampCounting(t *testing.T) {
	e := NewEngine()
	var ran int
	e.Schedule(-1, func() { ran++ })
	e.Schedule(math.NaN(), func() { ran++ })
	e.Schedule(0.5, func() { ran++ })
	e.Run()
	if ran != 3 {
		t.Fatalf("ran %d events, want 3 (clamped delays still fire)", ran)
	}
	neg, nan := e.ClampedDelays()
	if neg != 1 || nan != 1 {
		t.Fatalf("ClampedDelays = (%d, %d), want (1, 1)", neg, nan)
	}
}

func TestDeadlockPanicReportsClamps(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Process) { p.Suspend() })
	e.Schedule(-2, func() {})
	e.Schedule(math.NaN(), func() {})
	e.Schedule(-0.5, func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("deadlocked run did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", r)
		}
		if !strings.Contains(msg, "deadlock") {
			t.Fatalf("panic does not mention deadlock: %q", msg)
		}
		if !strings.Contains(msg, "2 negative and 1 NaN delays were clamped") {
			t.Fatalf("panic does not report the clamp counts: %q", msg)
		}
	}()
	e.Run()
}

func TestDeadlockPanicWithoutClampsOmitsClampNote(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Process) { p.Suspend() })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("deadlocked run did not panic")
		}
		if strings.Contains(r.(string), "clamped") {
			t.Fatalf("clean run's deadlock panic mentions clamps: %q", r)
		}
	}()
	e.Run()
}

func TestQueueHighWater(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() {})
	}
	if hw := e.QueueHighWater(); hw != 5 {
		t.Fatalf("QueueHighWater = %d before run, want 5", hw)
	}
	e.Run()
	if hw := e.QueueHighWater(); hw != 5 {
		t.Fatalf("QueueHighWater = %d after run, want 5 (high-water, not depth)", hw)
	}
}

func TestBlockedSecondsAccounting(t *testing.T) {
	e := NewEngine()
	var g Gate
	waiter := e.Spawn("waiter", func(p *Process) { wait(p, &g) })
	e.Spawn("opener", func(p *Process) {
		p.Sleep(5)
		g.Open(e)
	})
	e.Run()
	if got := waiter.BlockedSeconds(); got != 5 {
		t.Fatalf("waiter BlockedSeconds = %g, want 5", got)
	}
	// The opener slept voluntarily; Sleep is not blocked time.
	if got := e.BlockedSeconds(); got != 5 {
		t.Fatalf("engine BlockedSeconds = %g, want 5", got)
	}
}

func TestEnginePublishMetrics(t *testing.T) {
	e := NewEngine()
	e.Schedule(-1, func() {})
	e.Schedule(1, func() {})
	e.Run()

	e.PublishMetrics(nil) // must be a safe no-op

	reg := obs.NewRegistry()
	e.PublishMetrics(reg.Scope("sim"))
	snap := reg.Snapshot()
	if got := snap.Value("sim.events"); got != float64(e.Events()) {
		t.Fatalf("sim.events = %g, want %d", got, e.Events())
	}
	if got := snap.Value("sim.clamped_neg_delays"); got != 1 {
		t.Fatalf("sim.clamped_neg_delays = %g, want 1", got)
	}
	if got := snap.Value("sim.queue_high_water"); got != 2 {
		t.Fatalf("sim.queue_high_water = %g, want 2", got)
	}
}
