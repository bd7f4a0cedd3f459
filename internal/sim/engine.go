// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives goroutine-backed processes one at a time: exactly one
// process (or event callback) runs at any instant. The event loop is not
// pinned to a dedicated goroutine — a baton migrates between the caller of
// Run and the process goroutines, and whoever holds it drives the loop —
// but the execution order is fully serialized, so a simulation produces
// bit-identical results across runs. Determinism is required by the
// trace/replay methodology in internal/dimemas and keeps every experiment
// reproducible.
//
// Time is a float64 number of seconds since the start of the simulation.
package sim

import (
	"fmt"
	"math"

	"clustersoc/internal/obs"
)

// eventKind discriminates the calendar's two event flavours. The split
// exists so the hot wake-up path (process activations: Sleep, ResumeAt,
// resource grants, gate openings) carries a *Process directly instead of
// a freshly allocated closure.
type eventKind uint8

const (
	// evCall runs a general callback — the Schedule(delay, fn) API.
	evCall eventKind = iota
	// evWake activates a parked process. No closure is involved: the
	// event's proc field is the whole payload.
	evWake
)

// event is one calendar entry. Events are stored by value inside the
// calendar slice — no per-event heap allocation — and events with equal
// times fire in the order they were scheduled (seq is the tie-breaker),
// which keeps the engine deterministic.
type event struct {
	time float64
	seq  uint64
	fn   func()   // evCall payload (nil for evWake)
	proc *Process // evWake payload (nil for evCall)
	kind eventKind
}

// calendar is a value-typed 4-ary min-heap ordered by (time, seq). It
// replaces container/heap to avoid the interface boxing on every push and
// pop and the pointer-per-event layout of the seed engine; the wider fan-
// out also halves the tree depth, which matters because sift-down — the
// pop cost — dominates a simulation's heap traffic. Since seq is unique,
// (time, seq) is a total order: any correct heap pops the exact same
// sequence, so swapping the arity cannot perturb event order.
type calendar []event

// less orders the heap by time, then by schedule order.
func (c calendar) less(i, j int) bool {
	if c[i].time != c[j].time {
		return c[i].time < c[j].time
	}
	return c[i].seq < c[j].seq
}

// siftUp restores the heap property from leaf i toward the root.
func (c calendar) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !c.less(i, parent) {
			break
		}
		c[i], c[parent] = c[parent], c[i]
		i = parent
	}
}

// siftDown restores the heap property from i toward the leaves.
func (c calendar) siftDown(i int) {
	n := len(c)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for k := first + 1; k < last; k++ {
			if c.less(k, min) {
				min = k
			}
		}
		if !c.less(min, i) {
			return
		}
		c[i], c[min] = c[min], c[i]
		i = min
	}
}

// runStatus is the message a process goroutine sends on Engine.ret when it
// pauses the event loop and returns control to the Run/RunUntil caller. A
// non-nil panicVal carries a panic recovered on a process goroutine (a model
// bug in a body or callback it was driving) so it can re-surface on the
// caller's stack, where tests and callers expect it.
type runStatus struct {
	panicVal any
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now    float64
	queue  calendar
	seq    uint64
	ret    chan runStatus // control hand-back to the Run/RunUntil caller
	limit  float64        // current RunUntil horizon, valid while running
	events uint64         // total events processed, for diagnostics
	procs  int            // live (spawned, unfinished) processes

	// Diagnostic accounting. These are plain integer/float updates on
	// paths that already branch, so they stay on even when the
	// observability layer is disabled; PublishMetrics exports them.
	clampedNeg uint64  // Schedule calls with a negative delay (clamped to 0)
	clampedNaN uint64  // Schedule calls with a NaN delay (clamped to 0)
	maxQueue   int     // calendar depth high-water mark
	blocked    float64 // total simulated seconds processes spent blocked
	staleWakes uint64  // wake-ups popped after their process finished
	switches   uint64  // times the loop passed control to a process body
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	return &Engine{ret: make(chan runStatus)}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Stamp returns the current (time, sequence) pair. The sequence counter
// advances with every scheduled event, so two observations at the same
// simulated time are still totally ordered — the deterministic tie-break
// the critical-path recorder uses.
func (e *Engine) Stamp() (float64, uint64) { return e.now, e.seq }

// Events returns the number of events processed so far.
func (e *Engine) Events() uint64 { return e.events }

// clampDelay validates a relative delay: negative or NaN inputs are
// treated as zero, but never silently — each clamp is counted (see
// ClampedDelays) and reported in the deadlock panic, because a model
// emitting such delays is buggy even when the clamped schedule happens to
// complete.
func (e *Engine) clampDelay(delay float64) float64 {
	if delay < 0 || math.IsNaN(delay) {
		if math.IsNaN(delay) {
			e.clampedNaN++
		} else {
			e.clampedNeg++
		}
		return 0
	}
	return delay
}

// push stamps the next sequence number onto ev and inserts it.
func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.queue = append(e.queue, ev)
	e.queue.siftUp(len(e.queue) - 1)
	if len(e.queue) > e.maxQueue {
		e.maxQueue = len(e.queue)
	}
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the calendar does not pin dead fn/proc references.
func (e *Engine) pop() event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	e.queue = q[:n]
	if n > 1 {
		e.queue.siftDown(0)
	}
	return ev
}

// Schedule enqueues fn to run after delay seconds of simulated time.
// A negative or NaN delay is treated as zero but counted (clampDelay).
func (e *Engine) Schedule(delay float64, fn func()) {
	e.push(event{time: e.now + e.clampDelay(delay), fn: fn, kind: evCall})
}

// ScheduleAt enqueues fn at absolute time t (clamped to now). An exact
// t == now takes a fast path that never forms t - now: the subtraction is
// where a caller-computed "now" can round just below zero and count a
// spurious negative-delay clamp.
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if t == e.now {
		e.push(event{time: e.now, fn: fn, kind: evCall})
		return
	}
	e.Schedule(t-e.now, fn)
}

// wake enqueues p's activation after delay seconds — the typed fast path
// behind Sleep, WakeAfter, resource grants and gate openings. It is
// Schedule with the closure replaced by the process pointer itself, so a
// steady-state wake-up allocates nothing.
func (e *Engine) wake(delay float64, p *Process) {
	e.push(event{time: e.now + e.clampDelay(delay), proc: p, kind: evWake})
}

// wakeAt is wake at an absolute time, with the same exact-equality fast
// path as ScheduleAt.
func (e *Engine) wakeAt(t float64, p *Process) {
	if t == e.now {
		e.push(event{time: e.now, proc: p, kind: evWake})
		return
	}
	e.wake(t-e.now, p)
}

// Run processes events until the calendar is empty. It returns the final
// simulation time. If processes remain blocked with no pending events (a
// deadlock, e.g. a Recv with no matching Send), Run panics with a
// diagnostic: in a correct model that indicates a workload bug.
func (e *Engine) Run() float64 {
	return e.RunUntil(math.Inf(1))
}

// RunUntil processes events with time <= limit and returns the simulation
// time afterwards (min of limit and the last event time).
//
// The loop itself runs on whichever goroutine currently holds the baton
// (see drive): the caller drives until the first process activation, then
// control migrates between process goroutines — each yield hands the baton
// directly to the next runner — and comes back here only when the calendar
// pauses. That halves the channel handoffs per wake-up compared to a
// dedicated engine goroutine, without changing the serialized one-runner-
// at-a-time execution model.
func (e *Engine) RunUntil(limit float64) float64 {
	e.limit = limit
	if e.drive(nil) == driveHandedOff {
		// A process goroutine took the baton; wait for the loop to pause.
		st := <-e.ret
		if st.panicVal != nil {
			panic(st.panicVal)
		}
	}
	if len(e.queue) == 0 && e.procs > 0 {
		msg := fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at t=%g", e.procs, e.now)
		if e.clampedNeg+e.clampedNaN > 0 {
			msg += fmt.Sprintf(" (%d negative and %d NaN delays were clamped to 0 — a model emitted invalid delays)",
				e.clampedNeg, e.clampedNaN)
		}
		panic(msg)
	}
	if len(e.queue) > 0 && e.now < limit {
		e.now = limit
	}
	return e.now
}

// driveResult says how a drive call gave the baton up.
type driveResult uint8

const (
	// drivePaused: calendar empty or next event beyond the horizon. A
	// process driver has already handed control back to the RunUntil
	// caller via e.ret before returning this.
	drivePaused driveResult = iota
	// driveHandedOff: another process was activated and now owns the
	// baton.
	driveHandedOff
	// driveSelf: the popped event was the driving process's own wake-up,
	// so the driver keeps the baton and simply continues running — a
	// Sleep whose wake is the next event costs no channel operation at
	// all.
	driveSelf
)

// drive runs the event loop while the calling goroutine holds the baton.
// self is the process whose goroutine is driving, or nil when the
// Run/RunUntil caller drives. Exactly one goroutine executes drive at any
// instant, so all engine state stays single-threaded; the baton transfers
// (resume and ret channel sends) provide the happens-before edges between
// consecutive holders.
func (e *Engine) drive(self *Process) driveResult {
	for {
		if len(e.queue) == 0 || e.queue[0].time > e.limit {
			if self != nil {
				e.ret <- runStatus{}
			}
			return drivePaused
		}
		ev := e.pop()
		e.now = ev.time
		if ev.kind == evCall {
			e.events++
			ev.fn()
			continue
		}
		if ev.proc.done {
			// A wake-up landed after its process finished (e.g. a timed
			// resumption racing a message match). It performs no work, so
			// it must not count toward Events() — that would inflate the
			// events/s metric — but it is tracked separately.
			e.staleWakes++
			continue
		}
		e.events++
		if p := ev.proc; p.step != nil {
			// p is in Await: run its continuation right here, on the
			// driving goroutine, and switch p in only once it is done.
			if p.blocking {
				p.blocking = false
				p.addBlocked(e.now - p.blockedAt)
			}
			if !p.step() {
				continue
			}
			p.step = nil
			if p.resume == nil {
				// A SpawnStep process: its step was its whole life.
				p.done = true
				e.procs--
				continue
			}
		}
		e.switches++
		if ev.proc == self {
			return driveSelf
		}
		ev.proc.resume <- struct{}{}
		return driveHandedOff
	}
}

// ClampedDelays returns the number of Schedule calls whose delay was
// clamped to zero, split into negative and NaN inputs. Non-zero counts
// indicate a model bug upstream.
func (e *Engine) ClampedDelays() (negative, nan uint64) { return e.clampedNeg, e.clampedNaN }

// StaleWakes returns the number of wake-up events that were popped after
// their process had already finished. These perform no work and are
// excluded from Events().
func (e *Engine) StaleWakes() uint64 { return e.staleWakes }

// Switches returns the number of times the event loop passed control to
// a process body: its first activation, and each return from a Sleep,
// SleepUntil, Suspend or Await, whether that resumed the parked goroutine
// or was the driving process's own wake-up. A wake-up that runs an Await
// continuation which is not yet done is an event but not a switch, and a
// SpawnStep process is never switched in.
func (e *Engine) Switches() uint64 { return e.switches }

// QueueHighWater returns the deepest the event calendar has been.
func (e *Engine) QueueHighWater() int { return e.maxQueue }

// BlockedSeconds returns the total simulated time processes have spent
// blocked (suspended with no scheduled resumption: message waits,
// resource queues, gate waits), summed across processes.
func (e *Engine) BlockedSeconds() float64 { return e.blocked }

// PublishMetrics exports the engine's diagnostic accounting into an
// observability scope. Nil-safe: publishing into a nil scope is a no-op.
func (e *Engine) PublishMetrics(s *obs.Scope) {
	if s == nil {
		return
	}
	s.Counter("events").Add(float64(e.events))
	s.Counter("stale_wakes").Add(float64(e.staleWakes))
	s.Gauge("queue_high_water").Set(float64(e.maxQueue))
	s.Counter("blocked_s").Add(e.blocked)
	s.Counter("clamped_neg_delays").Add(float64(e.clampedNeg))
	s.Counter("clamped_nan_delays").Add(float64(e.clampedNaN))
}
