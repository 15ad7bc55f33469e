package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Handler is a callback executed when a scheduled event fires. It receives
// the kernel so that handlers can schedule follow-up events.
type Handler func(k *Kernel)

// EventID identifies a scheduled event so it can be cancelled before it
// fires. The zero EventID is never issued.
//
// Wheel-kernel IDs pack (pool slot + 1) in the high 32 bits and the
// slot's generation counter in the low 32; heap-kernel IDs are a plain
// counter. Both are opaque to callers — the only supported operations
// are Cancel and comparison against a stored value.
type EventID uint64

// Kernel is the discrete-event scheduler. It is not safe for concurrent
// use: the whole simulation runs on one goroutine, which is what makes the
// runs deterministic.
//
// Events are dispatched in (at, seq) order, where seq is a global
// monotone counter: among events posted for the same instant, the one
// scheduled first fires first. The default scheduler is the pooled
// hierarchical timer wheel (wheel.go); NewHeapKernel retains the
// original container/heap scheduler, byte-for-byte equivalent in
// dispatch order, as the reference for differential tests.
type Kernel struct {
	now     Time
	nextSeq uint64
	wheel   wheel
	legacy  *heapSched
	rng     *rand.Rand
	seed    int64

	executed uint64
	stopped  bool
	// firing is the ID of the event whose handler is running (Firing).
	firing EventID

	// Watchdog state (SetWatchdog). checkAt is the executed-event count
	// at which the dispatch loops consult the watchdog; math.MaxUint64
	// when no watchdog is armed, so the steady-state cost is a single
	// predictable compare per event.
	checkAt   uint64
	maxEvents uint64
	poll      func() bool
	pollEvery uint64
	trip      Trip
}

// Trip reports why a watchdog stopped the kernel.
type Trip int

const (
	// TripNone: the watchdog never fired.
	TripNone Trip = iota
	// TripEvents: the dispatched-event budget was reached. Deterministic:
	// equal (Config, Seed) runs trip at the identical event and instant.
	TripEvents
	// TripInterrupt: the external poll hook returned true (wall-clock
	// deadline, context cancellation — whatever the caller wired in).
	TripInterrupt
)

func (t Trip) String() string {
	switch t {
	case TripEvents:
		return "event budget"
	case TripInterrupt:
		return "interrupt"
	default:
		return "none"
	}
}

// DefaultPollEvery is the dispatch cadence at which an interrupt hook is
// polled when SetWatchdog is given a zero cadence: rare enough that the
// hook (typically a wall-clock read) never shows up in profiles, frequent
// enough that a wedged scenario is caught within milliseconds.
const DefaultPollEvery = 8192

// NewKernel creates a kernel whose random streams derive from seed.
// The same seed always reproduces the same simulation.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
		seed:    seed,
		checkAt: math.MaxUint64,
	}
	k.wheel.init()
	return k
}

// SetWatchdog arms the kernel's step budget: dispatch stops once
// maxEvents events have fired (0 = unlimited), and poll — when non-nil —
// is consulted every pollEvery dispatches (0 selects DefaultPollEvery)
// and stops the run when it returns true. The check rides the existing
// dispatch path as one integer compare per event, so an armed-but-untripped
// watchdog never changes a run's results: the event budget trips at a
// deterministic event count, and the poll hook observes only — it must
// never touch simulation state. Query the outcome with Tripped.
func (k *Kernel) SetWatchdog(maxEvents uint64, poll func() bool, pollEvery uint64) {
	k.maxEvents = maxEvents
	k.poll = poll
	k.pollEvery = pollEvery
	if k.pollEvery == 0 {
		k.pollEvery = DefaultPollEvery
	}
	k.scheduleCheck()
}

// Tripped reports whether (and why) the watchdog stopped the kernel.
func (k *Kernel) Tripped() Trip { return k.trip }

// scheduleCheck computes the next executed-count at which the dispatch
// loops must consult the watchdog.
func (k *Kernel) scheduleCheck() {
	k.checkAt = math.MaxUint64
	if k.poll != nil {
		k.checkAt = k.executed + k.pollEvery
	}
	if k.maxEvents > 0 && k.maxEvents < k.checkAt {
		k.checkAt = k.maxEvents
	}
}

// tripNow runs the armed watchdog checks; it reports true (and latches
// the cause) when the kernel must stop before dispatching the next event.
func (k *Kernel) tripNow() bool {
	if k.maxEvents > 0 && k.executed >= k.maxEvents {
		k.trip = TripEvents
		k.stopped = true
		return true
	}
	if k.poll != nil && k.poll() {
		k.trip = TripInterrupt
		k.stopped = true
		return true
	}
	k.scheduleCheck()
	return false
}

// NewHeapKernel creates a kernel driven by the original binary-heap
// scheduler. It dispatches in exactly the same (at, seq) order as the
// timer wheel and exists so differential tests can pin the wheel
// against the original implementation. Slower; not for production runs.
func NewHeapKernel(seed int64) *Kernel {
	k := NewKernel(seed)
	k.legacy = newHeapSched()
	return k
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed reports the seed the kernel was constructed with.
func (k *Kernel) Seed() int64 { return k.seed }

// Executed reports how many events have been dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending reports how many events are scheduled and not yet fired.
func (k *Kernel) Pending() int {
	if k.legacy != nil {
		return k.legacy.pending()
	}
	return k.wheel.live
}

// PoolStats reports the wheel kernel's event-pool accounting. A heap
// kernel has no pool and reports the zero value.
func (k *Kernel) PoolStats() PoolStats {
	if k.legacy != nil {
		return PoolStats{}
	}
	return k.wheel.stats()
}

// AuditPool cross-checks the wheel kernel's event-pool accounting and
// returns a detail string per broken balance (nil when consistent, and
// always nil for the heap kernel, which has no pool). The laws: every
// allocated slot is either recycled or in use, and the in-use count
// equals the live pending events — the pool recycles each slot before
// its handler fires, so the balance holds even when called from inside
// an event. A mismatch means a leak (a cancel or fire path lost a slot)
// or a double recycle that slipped past the loc guard.
func (k *Kernel) AuditPool() []string {
	if k.legacy != nil {
		return nil
	}
	var v []string
	st := k.wheel.stats()
	if st.Allocated < st.Recycled {
		v = append(v, fmt.Sprintf("pool recycled %d slots but allocated only %d", st.Recycled, st.Allocated))
	} else if leaked := st.Allocated - st.Recycled; leaked != uint64(st.InUse) {
		v = append(v, fmt.Sprintf("pool leak: allocated %d - recycled %d = %d outstanding, but %d slots in use",
			st.Allocated, st.Recycled, leaked, st.InUse))
	}
	if st.InUse != k.wheel.live {
		v = append(v, fmt.Sprintf("pool holds %d slots for %d live events", st.InUse, k.wheel.live))
	}
	return v
}

// Rand returns the kernel's deterministic random source. All stochastic
// model behaviour (bit errors, random SSR offsets, jitter) must draw from
// this stream so that a (config, seed) pair fully determines a run.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// ScheduleAt posts handler to run at the absolute instant at. Scheduling
// in the past (before Now) is a programming error and panics: allowing it
// would silently reorder causality.
func (k *Kernel) ScheduleAt(at Time, handler Handler) EventID {
	if handler == nil {
		panic("sim: ScheduleAt with nil handler")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (now=%v, at=%v)", k.now, at))
	}
	k.nextSeq++
	if k.legacy != nil {
		return k.legacy.schedule(at, k.nextSeq, handler)
	}
	return k.wheel.schedule(at, k.nextSeq, handler)
}

// Schedule posts handler to run after the relative delay d (which may be
// zero: the handler then runs at the current instant, after all handlers
// already queued for this instant).
func (k *Kernel) Schedule(d Time, handler Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.ScheduleAt(k.now+d, handler)
}

// Firing reports the ID of the event whose handler is running: the
// value ScheduleAt returned for it. A handler shared by several pending
// events (a method value bound once, instead of a closure per event)
// uses it to tell which of them fired; see Pending. Outside a handler
// it reports the last event dispatched.
func (k *Kernel) Firing() EventID { return k.firing }

// Cancel removes a pending event. It reports whether the event was still
// pending (false when it has already fired or been cancelled).
func (k *Kernel) Cancel(id EventID) bool {
	if k.legacy != nil {
		return k.legacy.cancel(id)
	}
	return k.wheel.cancel(id)
}

// Stop makes Run/RunUntil return after the currently executing handler
// completes. Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// step fires the earliest pending event. It reports false when the queue
// is empty or the watchdog tripped.
func (k *Kernel) step() bool {
	if k.executed >= k.checkAt && k.tripNow() {
		return false
	}
	if k.legacy != nil {
		h, at, id, ok := k.legacy.next()
		if !ok {
			return false
		}
		k.now, k.firing = at, id
		k.executed++
		h(k)
		return true
	}
	if !k.wheel.ensureReady() {
		return false
	}
	h, at, id := k.wheel.popReady()
	k.now, k.firing = at, id
	k.executed++
	h(k)
	return true
}

// RunUntil executes events in order until the queue is empty, Stop is
// called, or the next event lies strictly beyond the horizon. Time then
// advances to the horizon (so energy ledgers can close their intervals at
// a well-defined end instant).
func (k *Kernel) RunUntil(horizon Time) {
	if horizon < k.now {
		panic(fmt.Sprintf("sim: RunUntil horizon %v before now %v", horizon, k.now))
	}
	k.stopped = false
	if k.legacy != nil {
		for !k.stopped {
			next, ok := k.legacy.peek()
			if !ok || next > horizon {
				break
			}
			k.step()
		}
	} else {
		// Drain the ready tail directly: a slot boundary's same-instant
		// batch dispatches in this loop without touching the wheels again.
		for !k.stopped && k.wheel.ensureReady() && k.wheel.peekReady() <= horizon {
			if k.executed >= k.checkAt && k.tripNow() {
				break
			}
			h, at, id := k.wheel.popReady()
			k.now, k.firing = at, id
			k.executed++
			h(k)
		}
	}
	if !k.stopped && k.now < horizon {
		k.now = horizon
	}
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.step() {
	}
}
