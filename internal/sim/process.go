package sim

// Process is a goroutine-backed simulation process. A process body runs on
// its own goroutine but only while it holds the engine's baton, so the
// ensemble behaves like a set of coroutines: there is no true concurrency
// and no need for locks anywhere in the simulation.
//
// A process waits in one of four ways: Sleep and SleepUntil schedule its
// own wake-up, Suspend parks it until another component resumes it, and
// Await leaves a continuation (a step) that the engine runs at each
// wake-up, so a multi-step operation switches the process in once, not
// once per step. Pipe, Resource and Gate have only step forms
// (TransferEvent, TryAcquire, TryWait), which a step uses to wait. A
// SpawnStep process has no goroutine at all: it is one such continuation
// from spawn to done.
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

// SpawnStep creates a process with no goroutine: step is its whole life.
// It is activated at the current simulation time, as Spawn's body would
// be, and step runs at that activation and at every wake-up it arranges,
// on whichever goroutine drives the event loop; the process is done when
// step reports true. step follows Await's contract (a step that parks
// with no scheduled resumption calls Block first), and its process is
// never switched in, so it counts no Switches.
func (e *Engine) SpawnStep(name string, step func() bool) *Process {
	p := &Process{eng: e, name: name, step: step}
	e.procs++
	e.wake(0, p)
	return p
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

// Now returns the current simulation time.
func (p *Process) Now() float64 { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Process) Done() bool { return p.done }

// Sleep suspends the process for d seconds of simulated time. It rides
// the engine's typed wake-up path: no closure is allocated per call.
func (p *Process) Sleep(d float64) {
	p.WakeAfter(d)
	p.yield()
}

// WakeAfter schedules p's next wake-up d seconds from now without
// yielding: it is how an Await or SpawnStep step sleeps. It is Sleep's
// own wake-up (a negative or NaN d is clamped and counted the same way),
// so a step lands exactly where a sleeping body would.
func (p *Process) WakeAfter(d float64) { p.eng.wake(d, p) }

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
// component must later call Engine.ResumeAt, or the engine will report a
// deadlock. The simulated time until then is blocked time, attributed to
// the process and to the engine total, which the observability layer
// exports.
func (p *Process) Suspend() {
	t0 := p.eng.now
	p.yield()
	p.addBlocked(p.eng.now - t0)
}

// ResumeAt schedules p to continue at absolute time t.
func (e *Engine) ResumeAt(t float64, p *Process) { e.wakeAt(t, p) }

// Gate is a level-triggered latch: once Open has been called, TryWait
// reports true, regardless of ordering.
type Gate struct {
	open    bool
	waiters []*Process
}

// Open releases the gate, waking every process registered by TryWait at
// the present time, in the order they registered.
func (g *Gate) Open(e *Engine) {
	if g.open {
		return
	}
	g.open = true
	for _, w := range g.waiters {
		e.wake(0, w)
	}
	g.waiters = nil
}

// TryWait reports whether the gate is open; if it is not, it registers p
// to be woken when it opens, and the calling step must Block and return
// false.
func (g *Gate) TryWait(p *Process) bool {
	if g.open {
		return true
	}
	g.waiters = append(g.waiters, p)
	return false
}

// Resource is a FIFO counting semaphore (e.g. the kernel engine of a GPU
// stream).
type Resource struct {
	Capacity int
	inUse    int
	queue    []*Process
}

// NewResource returns a resource with the given capacity.
func NewResource(capacity int) *Resource {
	return &Resource{Capacity: capacity}
}

// TryAcquire takes a unit and reports true if one is free; otherwise it
// queues p, and the calling step must Block and return false. The
// wake-up that Release sends p hands it the unit: the releaser keeps the
// unit in use on p's behalf.
func (r *Resource) TryAcquire(p *Process) bool {
	if r.inUse < r.Capacity && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	r.queue = append(r.queue, p)
	return false
}

// Release returns one unit, waking the longest waiter if any.
func (r *Resource) Release(e *Engine) {
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		// The unit passes directly to next; inUse stays the same.
		e.wake(0, next)
		return
	}
	r.inUse--
}
