// Fixture stand-in for the real simulation kernel: just enough surface
// for the eventgen analyzer to recognise scheduling calls.
package sim

// Time is a virtual-clock instant.
type Time int64

// EventID identifies a scheduled event.
type EventID uint64

// Handler is a scheduled callback.
type Handler func(k *Kernel)

// Kernel is the discrete-event scheduler.
type Kernel struct{ now Time }

// Now reports the virtual time.
func (k *Kernel) Now() Time { return k.now }

// Schedule posts handler after a relative delay.
func (k *Kernel) Schedule(d Time, h Handler) EventID { _ = d; _ = h; return 0 }

// ScheduleAt posts handler at an absolute instant.
func (k *Kernel) ScheduleAt(at Time, h Handler) EventID { _ = at; _ = h; return 0 }

// ScheduleArgAt posts handler at an absolute instant with an argument
// word the handler reads back through Arg.
func (k *Kernel) ScheduleArgAt(at Time, h Handler, arg uint64) EventID {
	_, _, _ = at, h, arg
	return 0
}

// Arg reports the argument word of the event being dispatched.
func (k *Kernel) Arg() uint64 { return 0 }

// Timer is a restartable timer built on the kernel.
type Timer struct{ fn Handler }

// NewTimer creates a stopped timer invoking fn on fire.
func NewTimer(k *Kernel, fn Handler) *Timer { _ = k; return &Timer{fn: fn} }
