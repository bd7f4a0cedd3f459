package sim

import (
	"container/heap"
	"math"
	"os"
	"testing"
	"time"
)

// seedEvent and seedHeap replicate the engine's calendar as it was in the
// seed: heap-boxed *event nodes ordered through container/heap, with the
// interface boxing that implies on every push and pop. They are the
// baseline both guards compare against.
type seedEvent struct {
	time float64
	seq  uint64
	fn   func()
}

type seedHeap []*seedEvent

func (h seedHeap) Len() int { return len(h) }
func (h seedHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h seedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *seedHeap) Push(x any)   { *h = append(*h, x.(*seedEvent)) }
func (h *seedHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// seedEngine replicates the seed event loop: no clamp counting, no queue
// high-water tracking, no blocked-time accounting, pointer-per-event
// calendar.
type seedEngine struct {
	now   float64
	queue seedHeap
	seq   uint64
}

func (e *seedEngine) schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	e.seq++
	heap.Push(&e.queue, &seedEvent{time: e.now + delay, seq: e.seq, fn: fn})
}

func (e *seedEngine) run() {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*seedEvent)
		e.now = ev.time
		ev.fn()
	}
}

// seedProcess replicates the seed's process wake-up machinery: every
// Sleep allocated a fresh activation closure and pushed it through the
// boxed calendar. It is the baseline TestTypedWakeupSpeedGuard holds the
// typed wake-up path against.
type seedProcess struct {
	eng    *seedEngine
	park   chan struct{}
	resume chan struct{}
}

func (p *seedProcess) sleep(d float64) {
	p.eng.schedule(d, func() { p.activate() })
	p.park <- struct{}{}
	<-p.resume
}

func (p *seedProcess) activate() {
	p.resume <- struct{}{}
	<-p.park
}

// TestEngineOverheadGuard asserts the always-on diagnostic accounting in
// Schedule/RunUntil keeps the uninstrumented engine within 5% of the
// seed event loop. Timing-based, so it only runs when BENCH_GUARD=1 is
// set (a dedicated CI step); plain `go test ./...` skips it.
func TestEngineOverheadGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("timing guard: set BENCH_GUARD=1 to run")
	}

	const events = 1_000_000
	const attempts = 5

	// Each event schedules its successor: a pure event-chain drive that
	// spends its whole life in Schedule + the run loop.
	current := func() time.Duration {
		e := NewEngine()
		n := 0
		var step func()
		step = func() {
			if n++; n < events {
				e.Schedule(1e-6, step)
			}
		}
		e.Schedule(1e-6, step)
		start := time.Now()
		e.Run()
		return time.Since(start)
	}
	seed := func() time.Duration {
		e := &seedEngine{}
		n := 0
		var step func()
		step = func() {
			if n++; n < events {
				e.schedule(1e-6, step)
			}
		}
		e.schedule(1e-6, step)
		start := time.Now()
		e.run()
		return time.Since(start)
	}

	// Interleave a warm-up of each before timing.
	current()
	seed()
	cur, base := bestOf(attempts, current), bestOf(attempts, seed)

	ratio := float64(cur) / float64(base)
	t.Logf("current %v vs seed %v (ratio %.3f)", cur, base, ratio)
	if ratio > 1.05 {
		t.Fatalf("uninstrumented engine is %.1f%% slower than the seed loop (budget 5%%): %v vs %v",
			100*(ratio-1), cur, base)
	}
}

// TestTypedWakeupSpeedGuard asserts the typed wake-up path (Sleep through
// the value-typed calendar) is no slower than the seed's closure-per-wake
// design driving the same sleep loop. Timing-based, BENCH_GUARD-gated
// like the overhead guard.
func TestTypedWakeupSpeedGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("timing guard: set BENCH_GUARD=1 to run")
	}

	const wakeups = 300_000
	const attempts = 5

	current := func() time.Duration {
		e := NewEngine()
		e.Spawn("sleeper", func(p *Process) {
			for i := 0; i < wakeups; i++ {
				p.Sleep(1e-6)
			}
		})
		start := time.Now()
		e.Run()
		return time.Since(start)
	}
	seed := func() time.Duration {
		e := &seedEngine{}
		p := &seedProcess{eng: e, park: make(chan struct{}), resume: make(chan struct{})}
		go func() {
			<-p.resume
			for i := 0; i < wakeups; i++ {
				p.sleep(1e-6)
			}
			p.park <- struct{}{}
		}()
		e.schedule(0, func() { p.activate() })
		start := time.Now()
		e.run()
		return time.Since(start)
	}

	current()
	seed()
	cur, base := bestOf(attempts, current), bestOf(attempts, seed)

	ratio := float64(cur) / float64(base)
	t.Logf("typed %v vs seed closures %v (ratio %.3f)", cur, base, ratio)
	if ratio > 1.05 {
		t.Fatalf("typed wake-up path is %.1f%% slower than the seed closure path (budget 5%%): %v vs %v",
			100*(ratio-1), cur, base)
	}
}

// TestTypedWakeupAllocFree asserts the typed wake-up path allocates
// nothing in steady state: Sleep and ResumeAt push value events into the
// calendar's existing backing array, with no closure and no boxed node.
// Deterministic (allocation counting, not timing), so it always runs; it
// is also part of the BENCH_GUARD CI step.
func TestTypedWakeupAllocFree(t *testing.T) {
	e := NewEngine()
	waiter := e.Spawn("waiter", func(p *Process) {
		for {
			p.Suspend()
		}
	})
	e.Spawn("driver", func(p *Process) {
		for {
			p.Sleep(1)                      // typed relative wake
			e.ResumeAt(p.Now()+0.5, waiter) // typed absolute wake
		}
	})
	limit := 100.0
	e.RunUntil(limit) // warm up: calendar capacity, goroutine stacks

	allocs := testing.AllocsPerRun(10, func() {
		limit += 100
		e.RunUntil(limit)
	})
	if allocs != 0 {
		t.Fatalf("typed wake-up path allocates %.1f objects per 100 simulated wake-ups, want 0", allocs)
	}
}

// bestOf returns the minimum duration over n runs of f.
func bestOf(n int, f func() time.Duration) time.Duration {
	m := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		if d := f(); d < m {
			m = d
		}
	}
	return m
}
