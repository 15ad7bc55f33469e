// Package mcu models the TI MSP430F149 microcontroller of the sensor
// node: a single in-order execution resource with per-state power draw.
//
// Following the paper's §4.1, the microcontroller is not simulated at the
// instruction level (that would blow up simulation time); instead each
// OS/application activity carries a calibrated cycle count and the MCU is
// a serialising executor that integrates E = I·Vdd·t over its active /
// power-save residency. Execution requests are serviced strictly in
// arrival order (run-to-completion, like the TinyOS task model layered on
// top of it), and the MCU drops into the scheduler-selected low-power
// mode whenever the work queue drains.
//
// Dropping back to sleep is residency bookkeeping only, so work without
// a completion callback costs no kernel event: its Exec leaves the
// energy meter a deferred transition into the sleep state at the instant
// the work ends, and reserves the dispatch position its completion event
// would have taken. The MCU counts as asleep once dispatch has passed
// that position, exactly when the elided event would have put it to
// sleep. Work with a callback still completes through a kernel event,
// which puts the MCU to sleep itself.
//
// A component whose work carries state across its completions (a
// streaming application's samples, say) can still submit it without a
// callback: a Marks it registers with Track records each computation's
// completion position, and learns at a crash which of them dispatch had
// passed, so the component keeps exactly the effects of the
// computations that completed and drops those the crash abandoned.
package mcu

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// MCU is the microcontroller model. Not safe for concurrent use: it lives
// on the simulation goroutine.
type MCU struct {
	k      *sim.Kernel
	params platform.MCUParams
	meter  *energy.Meter

	// busyUntil is the instant the queued work runs out. awake is false
	// while the MCU sleeps with no work run since, or is crashed. When
	// the last queued work has no callback, idleSeq is the dispatch
	// position reserved for its elided completion, from which on the
	// MCU is asleep (see asleep); otherwise it is completionEvent.
	busyUntil sim.Time
	idleSeq   uint64
	awake     bool
	// doneSeq is the sequence number of the last queued work's
	// completion: its event's, or the reserved one of an elided
	// completion. With busyUntil it is the position a Marks records.
	doneSeq uint64
	// sleep is the low-power mode the MCU idles in; it and the other
	// handles are the meter's states, resolved once.
	sleep  energy.Handle
	active energy.Handle
	off    energy.Handle
	// gen invalidates queued completions across a crash: each completion
	// event carries the generation it was issued under as its argument
	// word, and only applies its effects while that is still current.
	gen uint64
	// dones holds the callbacks of the queued computations that have
	// one, in submission order: completions of one generation dispatch
	// in that order, since the work ends in it and events at one
	// instant fire in sequence order. complete is the completion
	// handler, bound once so queuing work allocates nothing.
	dones    sim.FIFO[func()]
	complete sim.Handler
	// marks lists the Marks registered with Track, linked through their
	// next fields; a crash settles each.
	marks *Marks

	execs      uint64
	cyclesRun  int64
	activeTime sim.Time
}

// New creates an MCU, registers its energy meter on the ledger and starts
// it in the power-save state at the kernel's current instant.
func New(k *sim.Kernel, params platform.MCUParams, ledger *energy.Ledger) *MCU {
	v := params.VoltageV
	meter := ledger.Add(platform.ComponentMCU, map[energy.State]energy.Draw{
		platform.StateMCUOff:       {},
		platform.StateMCUActive:    {CurrentA: params.ActiveA, VoltageV: v},
		platform.StateMCUPowerSave: {CurrentA: params.PowerSaveA, VoltageV: v},
		platform.StateMCULPM1:      {CurrentA: params.DeepModesA[0], VoltageV: v},
		platform.StateMCULPM2:      {CurrentA: params.DeepModesA[1], VoltageV: v},
		platform.StateMCULPM3:      {CurrentA: params.DeepModesA[2], VoltageV: v},
		platform.StateMCULPM4:      {CurrentA: params.DeepModesA[3], VoltageV: v},
	})
	meter.Start(k.Now(), platform.StateMCUPowerSave)
	m := &MCU{
		k:         k,
		params:    params,
		meter:     meter,
		busyUntil: k.Now(),
		sleep:     meter.Handle(platform.StateMCUPowerSave),
		active:    meter.Handle(platform.StateMCUActive),
		off:       meter.Handle(platform.StateMCUOff),
	}
	m.complete = m.onComplete
	return m
}

// completionEvent is idleSeq when the last queued work completes through
// a kernel event, whose handler puts the MCU to sleep: no reserved
// position stands in for it.
const completionEvent = math.MaxUint64

// Params reports the electrical parameters the MCU was built with.
func (m *MCU) Params() platform.MCUParams { return m.params }

// SetSleepState selects which low-power mode the MCU enters when idle.
// This is the hook the TinyOS power policy uses; the paper's workloads
// always select the first power-save mode.
func (m *MCU) SetSleepState(s energy.State) {
	switch s {
	case platform.StateMCUPowerSave, platform.StateMCULPM1,
		platform.StateMCULPM2, platform.StateMCULPM3, platform.StateMCULPM4:
	default:
		panic(fmt.Sprintf("mcu: %q is not a sleep state", s))
	}
	m.sleep = m.meter.Handle(s)
	if m.asleep() {
		m.meter.Enter(m.k.Now(), m.sleep)
	} else {
		m.meter.Defer(m.busyUntil, m.sleep)
	}
}

// asleep reports whether the MCU sits in its sleep state at the kernel's
// dispatch position: it has not run since it last slept, or dispatch has
// passed the position reserved for its last work's elided completion.
//
//hot:path
func (m *MCU) asleep() bool {
	return !m.awake || m.k.Passed(m.busyUntil, m.idleSeq)
}

// Completion reports the dispatch position at which the work most
// recently submitted completes: its instant, and the sequence number of
// its completion event or of the position reserved for its elided one.
// The work has completed once sim.Kernel.Passed holds for them.
//
//hot:path
func (m *MCU) Completion() (sim.Time, uint64) { return m.busyUntil, m.doneSeq }

// Busy reports whether the MCU is currently executing (or has queued
// work).
func (m *MCU) Busy() bool { return m.k.Now() < m.busyUntil }

// Execs reports how many execution requests have been issued.
func (m *MCU) Execs() uint64 { return m.execs }

// CyclesRun reports the total instruction cycles executed.
func (m *MCU) CyclesRun() int64 { return m.cyclesRun }

// ActiveTime reports the cumulative time spent in the active state.
func (m *MCU) ActiveTime() sim.Time { return m.activeTime }

// ResetAccounting zeroes the MCU's execution counters (not its meter;
// reset that through the ledger).
func (m *MCU) ResetAccounting() {
	m.execs = 0
	m.cyclesRun = 0
	m.activeTime = 0
}

// Exec queues cycles of computation. The work starts immediately if the
// MCU is idle (after the wakeup ramp if it was sleeping) or after all
// previously queued work otherwise; done (if non-nil) runs at completion,
// on the simulation goroutine. Exec returns the completion instant.
// With a nil done, Exec schedules no kernel event at all. Queuing
// allocates nothing: pass a done bound once (a method value kept in a
// field), not a fresh closure, to keep the caller allocation-free too.
//
//hot:path
func (m *MCU) Exec(cycles int64, done func()) sim.Time {
	return m.execFor(m.params.CyclesToTime(cycles), cycles, done)
}

// ExecDur queues computation lasting an explicit wall duration, used for
// timed programmed-I/O loops such as the ShockBurst FIFO clock-in where
// the bus rate, not the instruction count, sets the pace.
func (m *MCU) ExecDur(d sim.Time, done func()) sim.Time {
	if d < 0 {
		panic("mcu: negative duration")
	}
	cycles := int64(float64(d) / float64(sim.Second) * m.params.ClockHz)
	return m.execFor(d, cycles, done)
}

func (m *MCU) execFor(dur sim.Time, cycles int64, done func()) sim.Time {
	now := m.k.Now()
	m.execs++
	m.cyclesRun += cycles

	start, woke := now, false
	if m.busyUntil > now {
		start = m.busyUntil
	} else if m.asleep() {
		// Waking from a low-power mode costs the stand-by→active ramp;
		// the core draws active current during the ramp. Enter first
		// applies the meter's deferred sleep at busyUntil.
		dur += m.params.WakeupLatency
		woke = true
		m.awake = true
		m.meter.Enter(now, m.active)
	}
	// Otherwise the last work ended at this very instant and its
	// completion has not passed yet: the core runs straight on.
	end := start + dur
	m.activeTime += dur
	if done != nil {
		m.dones.Push(done)
		m.k.ScheduleArgAt(end, m.complete, m.gen)
		m.doneSeq = m.k.Seq()
	}
	if end == m.busyUntil && !woke {
		// Zero-length work at the instant the queued work runs out: the
		// earlier completion, ahead of this one, still finds nothing
		// left to run and puts the MCU to sleep.
		return end
	}
	m.busyUntil = end
	m.idle(end, done != nil)
	return end
}

// idle records how the MCU goes back to sleep once the queued work runs
// out at end, replacing what it held for earlier work, which new work
// has pushed back. A completion event (event set) puts it to sleep
// itself. Otherwise the meter holds the sleep transition, and idle
// reserves the dispatch position the elided event would have taken.
//
//hot:path
func (m *MCU) idle(end sim.Time, event bool) {
	if event {
		m.idleSeq = completionEvent
		m.meter.Undefer()
		return
	}
	m.idleSeq = m.k.Reserve()
	m.doneSeq = m.idleSeq
	m.meter.Defer(end, m.sleep)
}

// onComplete finishes one queued computation.
//
//hot:path
func (m *MCU) onComplete(k *sim.Kernel) {
	if k.Arg() != m.gen {
		return // the node crashed; this computation never completed
	}
	m.dones.Pop()()
	// Sleep only if the completion callback queued nothing further.
	if end := k.Now(); m.busyUntil == end && m.awake {
		m.awake = false
		m.meter.Enter(end, m.sleep)
	}
}

// Crash models a node power loss: all queued computation is abandoned
// (its completion callbacks never run), and the core stops drawing
// current until Reboot. ActiveTime keeps the already-charged estimate of
// the aborted work; the energy meter — the accounting source of truth —
// is cut off at the crash instant.
func (m *MCU) Crash() {
	for q := m.marks; q != nil; q = q.next {
		q.crashed()
	}
	m.gen++
	m.dones.Reset()
	m.busyUntil = m.k.Now()
	m.awake = false
	m.meter.Enter(m.k.Now(), m.off)
}

// Reboot restores the core after a Crash: it comes up in the configured
// sleep state, ready for the boot code's first Exec.
func (m *MCU) Reboot() {
	m.meter.Enter(m.k.Now(), m.sleep)
}

// Queue holds per-computation state of a component that submits work to
// the MCU: push the state when submitting, pop it in the done callback.
// The MCU serialises execution, so the callbacks that run come in
// submission order; a crash abandons the computations in flight, so
// each entry carries the crash generation it was pushed under and Pop
// first discards the entries a crash left behind. The zero value is not
// usable: build one with NewQueue. Steady state allocates nothing.
type Queue[T any] struct {
	m *MCU
	q sim.FIFO[queued[T]]
}

type queued[T any] struct {
	gen uint64
	v   T
}

// NewQueue builds a queue for work submitted to m.
func NewQueue[T any](m *MCU) Queue[T] { return Queue[T]{m: m} }

// Push queues the state of a computation about to be submitted.
func (q *Queue[T]) Push(v T) { q.q.Push(queued[T]{gen: q.m.gen, v: v}) }

// Pop returns the state of the oldest computation that survived every
// crash: call it from that computation's done callback.
func (q *Queue[T]) Pop() T {
	for q.q.Peek().gen != q.m.gen {
		q.q.Pop() // abandoned by a crash
	}
	return q.q.Pop().v
}

// DropAbandoned discards the entries of computations a crash abandoned.
// After the MCU's Crash that is every entry.
func (q *Queue[T]) DropAbandoned() {
	for q.q.Len() > 0 && q.q.Peek().gen != q.m.gen {
		q.q.Pop()
	}
}

// Grow sizes an empty queue for n entries (sim.FIFO.Grow).
func (q *Queue[T]) Grow(n int) { q.q.Grow(n) }

// Len reports the number of queued entries, abandoned ones included.
func (q *Queue[T]) Len() int { return q.q.Len() }

// Marks follows where the computations a component submits to the MCU
// complete, in submission order, so that the component learns which of
// them a crash abandoned even when their completions cost no kernel
// event. Call Mark right after each submission whose fate matters, and
// Settle before acting on the state of earlier ones: it reports how many
// marked computations crashes abandoned since the last Settle. A
// computation counts as completed exactly when dispatch has passed its
// completion position, its event's or the one reserved for it, as
// sim.Kernel.Passed judges it at the crash. The zero value is usable once
// registered with Track. Steady state allocates nothing.
type Marks struct {
	m    *MCU
	q    sim.FIFO[mark]
	lost int
	next *Marks
}

// mark is the dispatch position at which one computation completes.
type mark struct {
	at  sim.Time
	seq uint64
}

// Track registers q with m: q follows the computations submitted to m,
// and each Crash of m settles it. q must not move afterwards.
func (m *MCU) Track(q *Marks) {
	q.m = m
	q.next, m.marks = m.marks, q
}

// Mark records the completion position of the computation most
// recently submitted to the MCU.
//
//hot:path
func (q *Marks) Mark() {
	at, seq := q.m.Completion()
	q.q.Push(mark{at: at, seq: seq})
}

// Settle forgets the marks of the computations that have completed and
// reports how many marked computations crashes abandoned since the last
// Settle. Abandoned computations are always the latest ones marked
// before their crash.
//
//hot:path
func (q *Marks) Settle() int {
	for q.q.Len() > 0 {
		if c := q.q.Peek(); !q.m.k.Passed(c.at, c.seq) {
			break
		}
		q.q.Pop()
	}
	n := q.lost
	q.lost = 0
	return n
}

// crashed counts every marked computation still running at a crash as
// abandoned.
func (q *Marks) crashed() {
	lost := q.Settle()
	q.lost = lost + q.q.Len()
	q.q.Reset()
}
