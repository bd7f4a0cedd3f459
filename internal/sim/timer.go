package sim

// Timer is a cancellable scheduled callback. The fault plane uses timers
// for state that must be revertible before it fires: a link flap schedules
// its restoration, and a node crash during the flap cancels that
// restoration (the NIC reset on reboot supersedes the flap recovery).
//
// A Timer rides the ordinary evCall path: cancellation marks the timer
// stopped and the wrapper closure drops the callback when the event pops,
// so the calendar needs no removal operation and the event layout (and
// therefore the engine's hot-path cost) is unchanged.
type Timer struct {
	stopped bool
	fired   bool
}

// AfterAt schedules fn to run at absolute time at (clamped to now, like
// ScheduleAt) and returns its timer.
func (e *Engine) AfterAt(at float64, fn func()) *Timer {
	t := &Timer{}
	e.ScheduleAt(at, func() {
		if t.stopped {
			return
		}
		t.fired = true
		fn()
	})
	return t
}

// Stop cancels the timer and reports whether it did: false means the
// callback already ran (or Stop was already called). The calendar entry
// stays in place and is discarded when it pops.
func (t *Timer) Stop() bool {
	if t.stopped || t.fired {
		return false
	}
	t.stopped = true
	return true
}
