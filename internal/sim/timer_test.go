package sim

import (
	"math"
	"testing"
)

func TestTimerFires(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	tm := e.AfterAt(2.5, func() { at = e.Now() })
	e.Run()
	if at != 2.5 {
		t.Fatalf("timer fired at %g, want 2.5", at)
	}
	if tm.Stop() {
		t.Fatal("Stop after firing must report false")
	}
}

func TestTimerStopPreventsCallback(t *testing.T) {
	e := NewEngine()
	ran := false
	tm := e.AfterAt(5, func() { ran = true })
	e.Schedule(1, func() {
		if !tm.Stop() {
			t.Error("Stop before firing must report true")
		}
		if tm.Stop() {
			t.Error("second Stop must report false")
		}
	})
	e.Run()
	if ran {
		t.Fatal("cancelled timer callback ran")
	}
	// The dead calendar entry still pops, so the clock advances to it.
	if e.Now() != 5 {
		t.Fatalf("clock at %g, want 5 (cancelled entry still pops)", e.Now())
	}
}

func TestTimerAfterAt(t *testing.T) {
	e := NewEngine()
	var order []float64
	e.Schedule(1, func() {
		e.AfterAt(3, func() { order = append(order, e.Now()) })
		e.AfterAt(1, func() { order = append(order, e.Now()) }) // t == now fast path
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("AfterAt firings = %v, want [1 3]", order)
	}
}

func TestTimerStopIsDeterministicWithEqualTimes(t *testing.T) {
	// A timer cancelled at the same instant it would fire: the cancel was
	// scheduled first, so it pops first and the callback never runs.
	e := NewEngine()
	ran := false
	e.Schedule(1, func() {})
	var tm *Timer
	e.Schedule(0, func() {
		e.Schedule(1, func() { tm.Stop() })
		tm = e.AfterAt(1, func() { ran = true })
	})
	e.Run()
	if ran {
		t.Fatal("timer fired despite an earlier-scheduled same-time Stop")
	}
}

func TestStreamDeterministicAndDecorrelated(t *testing.T) {
	a1 := NewStream(42, "crash/0")
	a2 := NewStream(42, "crash/0")
	b := NewStream(42, "crash/1")
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("same (seed, salt) streams diverged")
		}
	}
	same := 0
	a := NewStream(42, "crash/0")
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently salted streams collided %d/100 draws", same)
	}
}

func TestStreamDraws(t *testing.T) {
	s := NewStream(7, "x")
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 || math.IsNaN(f) {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
	s = NewStream(7, "exp")
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		d := s.Exp(3.0)
		if d <= 0 || math.IsInf(d, 0) || math.IsNaN(d) {
			t.Fatalf("Exp draw invalid: %g", d)
		}
		sum += d
	}
	if mean := sum / n; mean < 2.8 || mean > 3.2 {
		t.Fatalf("Exp(3) sample mean %g, want ~3", mean)
	}
}
