package sim

// Timer is a restartable one-shot or periodic timer built on the kernel.
// The model schedules its events on the kernel directly; tests use Timer
// as a periodic traffic source and poller.
type Timer struct {
	k       *Kernel
	fn      Handler
	h       Handler // t.fire bound once, so re-arming never allocates
	id      EventID
	period  Time
	running bool
}

// NewTimer creates a timer that invokes fn each time it fires. The timer
// starts stopped.
func NewTimer(k *Kernel, fn Handler) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil handler")
	}
	t := &Timer{k: k, fn: fn}
	t.h = t.fire
	return t
}

// StartOneShot arms the timer to fire once after d. Any previous schedule
// is cancelled.
func (t *Timer) StartOneShot(d Time) {
	t.Stop()
	t.period = 0
	t.running = true
	t.id = t.k.Schedule(d, t.h)
}

// StartPeriodic arms the timer to fire every period, first after one full
// period. period must be positive.
func (t *Timer) StartPeriodic(period Time) {
	if period <= 0 {
		panic("sim: StartPeriodic with non-positive period")
	}
	t.Stop()
	t.period = period
	t.running = true
	t.id = t.k.Schedule(period, t.h)
}

// StartPeriodicAt arms the timer to fire first at the absolute instant
// first and then every period thereafter.
func (t *Timer) StartPeriodicAt(first Time, period Time) {
	if period <= 0 {
		panic("sim: StartPeriodicAt with non-positive period")
	}
	t.Stop()
	t.period = period
	t.running = true
	t.id = t.k.ScheduleAt(first, t.h)
}

// Stop disarms the timer. Safe to call on a stopped timer.
func (t *Timer) Stop() {
	if t.running {
		t.k.Cancel(t.id)
		t.running = false
	}
}

// Running reports whether the timer is armed.
func (t *Timer) Running() bool { return t.running }

func (t *Timer) fire(k *Kernel) {
	if t.period > 0 {
		t.id = k.Schedule(t.period, t.h)
	} else {
		t.running = false
	}
	t.fn(k)
}
