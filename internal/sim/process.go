package sim

// Process is a goroutine-backed simulation process. A process body runs on
// its own goroutine but only while it holds the engine's baton, so the
// ensemble behaves like a set of coroutines: there is no true concurrency
// and no need for locks anywhere in the simulation.
//
// A process blocks by calling Sleep, Wait, Pipe.Transfer, or
// Resource.Acquire; each of those schedules a resumption event and yields
// control back to the engine. Await instead leaves a continuation that
// the engine runs at each wake-up, so a multi-step operation switches the
// process in once, not once per step.
type Process struct {
	eng     *Engine
	name    string
	resume  chan struct{}
	done    bool
	blocked float64 // simulated seconds spent blocked (no scheduled resumption)

	// step is the continuation of the Await in progress, or nil.
	step func() bool
	// blocking marks a step parked by Block since blockedAt.
	blocking  bool
	blockedAt float64
}

// Spawn creates a process running body and schedules its first activation
// at the current simulation time. Spawn may be called before Run or from
// inside any event/process context.
//
// When the body returns, the goroutine does not hand control anywhere —
// it keeps driving the event loop itself (drive) until the loop activates
// another process or pauses, then exits. A panic escaping the body (or a
// callback the goroutine was driving) is recovered and forwarded to the
// Run/RunUntil caller, which re-raises it.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name, resume: make(chan struct{})}
	e.procs++
	go func() {
		defer func() {
			if r := recover(); r != nil {
				e.ret <- runStatus{panicVal: r}
			}
		}()
		<-p.resume
		body(p)
		p.done = true
		e.procs--
		e.drive(p)
	}()
	e.wake(0, p)
	return p
}

// yield passes the baton on and parks until this process's next activation.
// The caller must already have arranged for a future activation (otherwise
// the process never runs again and the engine reports a deadlock when the
// calendar drains). Driving the loop from the yielding goroutine — rather
// than waking a central engine goroutine that then wakes the next process —
// is what makes a wake-up a single channel handoff.
func (p *Process) yield() {
	if p.eng.drive(p) == driveSelf {
		// Our own wake-up was the next event: keep running.
		return
	}
	<-p.resume
}

// block is yield with blocked-time accounting: it is the path taken when
// the process parks with no scheduled resumption (message wait, resource
// queue, gate/signal wait) and some other component wakes it later. The
// elapsed simulated time is attributed to the process and to the engine
// total, which the observability layer exports.
func (p *Process) block() {
	t0 := p.eng.now
	p.yield()
	p.addBlocked(p.eng.now - t0)
}

// addBlocked attributes d simulated seconds of blocking to p and to the
// engine total.
func (p *Process) addBlocked(d float64) {
	p.blocked += d
	p.eng.blocked += d
}

// Await runs step until it reports done, then returns. step runs first
// at once, on p's goroutine. Each time it returns false it must have
// arranged p's next wake-up (an Engine.ResumeAt of p, or a registration
// that another component answers with one), and that wake-up runs step
// again on whichever goroutine is driving the event loop; p's goroutine
// is switched in only when step returns true. A step that parks with no
// scheduled resumption calls Block first, so the wait is accounted as
// blocked time exactly as Suspend accounts it.
//
// While p is in Await it must be woken only by the wake-ups its step
// arranges: any other wake-up of p would run step early. A panic in step
// surfaces on the Run caller, as a panic in a process body does.
func (p *Process) Await(step func() bool) {
	if step() {
		return
	}
	p.step = step
	p.yield()
}

// Block marks the running Await step as parked with no scheduled
// resumption: the simulated time until p's next wake-up is added to its
// blocked time. It is only valid inside a step that then returns false.
func (p *Process) Block() {
	p.blocking = true
	p.blockedAt = p.eng.now
}

// BlockedSeconds returns the simulated time this process has spent
// blocked (excluding voluntary Sleep).
func (p *Process) BlockedSeconds() float64 { return p.blocked }

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine that owns this process.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Process) Now() float64 { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Process) Done() bool { return p.done }

// Sleep suspends the process for d seconds of simulated time. It rides
// the engine's typed wake-up path: no closure is allocated per call.
func (p *Process) Sleep(d float64) {
	p.eng.wake(d, p)
	p.yield()
}

// SleepUntil suspends the process until absolute time t (no-op if t has
// passed).
func (p *Process) SleepUntil(t float64) {
	if t <= p.eng.now {
		return
	}
	p.eng.wakeAt(t, p)
	p.yield()
}

// Suspend parks the process with no scheduled resumption; some other
// component must later call Engine.Resume / Engine.ResumeAt, or the engine
// will report a deadlock.
func (p *Process) Suspend() { p.block() }

// Resume schedules p to continue at the current time. Only valid for a
// process parked with Suspend (or registered in a Signal the caller
// manages itself).
func (e *Engine) Resume(p *Process) { e.wake(0, p) }

// ResumeAt schedules p to continue at absolute time t.
func (e *Engine) ResumeAt(t float64, p *Process) { e.wakeAt(t, p) }

// Signal is a broadcast condition: processes Wait on it and a later Fire
// resumes all current waiters (in Wait order). Fire-then-Wait does not
// wake; use Gate for level-triggered behaviour.
type Signal struct {
	waiters []*Process
}

// Wait suspends p until the next Fire.
func (s *Signal) Wait(p *Process) {
	s.waiters = append(s.waiters, p)
	p.block()
}

// Fire resumes every currently waiting process at the present time, in the
// order they called Wait.
func (s *Signal) Fire(e *Engine) {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		e.wake(0, w)
	}
}

// Pending returns the number of processes currently waiting.
func (s *Signal) Pending() int { return len(s.waiters) }

// Gate is a level-triggered latch: Wait returns immediately once Open has
// been called, regardless of ordering.
type Gate struct {
	open bool
	sig  Signal
}

// Open releases the gate, waking current and future waiters.
func (g *Gate) Open(e *Engine) {
	if g.open {
		return
	}
	g.open = true
	g.sig.Fire(e)
}

// Wait blocks p until the gate is open.
func (g *Gate) Wait(p *Process) {
	if g.open {
		return
	}
	g.sig.Wait(p)
}

// IsOpen reports whether Open has been called.
func (g *Gate) IsOpen() bool { return g.open }

// Resource is a FIFO counting semaphore (e.g. CPU cores on a node, kernel
// engines on a GPU).
type Resource struct {
	Capacity int
	inUse    int
	queue    []*Process
	busy     float64 // accumulated unit-seconds of use
	lastT    float64
}

// NewResource returns a resource with the given capacity.
func NewResource(capacity int) *Resource {
	return &Resource{Capacity: capacity}
}

func (r *Resource) account(e *Engine) {
	r.busy += float64(r.inUse) * (e.now - r.lastT)
	r.lastT = e.now
}

// Acquire blocks p until a unit is available and then takes it.
func (r *Resource) Acquire(p *Process) {
	e := p.eng
	if r.inUse < r.Capacity && len(r.queue) == 0 {
		r.account(e)
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.block()
	// The releaser accounted and incremented on our behalf.
}

// Release returns one unit, waking the longest waiter if any.
func (r *Resource) Release(e *Engine) {
	r.account(e)
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		// The unit passes directly to next; inUse stays the same.
		e.wake(0, next)
		return
	}
	r.inUse--
}

// BusyTime returns accumulated unit-seconds of utilization up to t.
func (r *Resource) BusyTime(e *Engine) float64 {
	r.account(e)
	return r.busy
}
