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
// The energy meter's residency is the MCU's one account of its
// activity. Every computation reserves the dispatch position of its
// completion (sim.Kernel.Reserve) and leaves the meter a deferred
// transition into the sleep state at the instant the work ends: the MCU
// counts as asleep once dispatch has passed that position. Dropping back
// to sleep is residency bookkeeping only, so work without a completion
// callback costs no kernel event; a callback runs in an event scheduled
// at the reserved position (sim.Kernel.ScheduleReserved).
//
// Work whose completion callback's effects its submitter applies at
// submission is a hand-off (HandOffs): filed under the completion
// position reserved for it, settled once dispatch passes that position,
// and undone if anything intervenes first (see HandOffs).
package mcu

import (
	"fmt"

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

	// idle is the completion position the MCU goes back to sleep at:
	// its instant is when the queued work runs out, and the MCU is
	// asleep once dispatch has passed it. awake is false while the MCU sleeps
	// with no work run since, or is crashed.
	idle  sim.Pos
	awake bool
	// done is the completion position of the work submitted last, the
	// one a hand-off is filed under; event is its completion event, 0
	// when that work has no callback. shared is set when that work has no callback
	// and no completion position of its own (see execFor). nChain
	// counts the hand-offs work follows (chain, below), which every
	// submission checks; last is the record that opened a hand-off
	// last, and reference is set by Reference.
	done      sim.Pos
	event     sim.EventID
	shared    bool
	nChain    int
	last      *HandOffs
	reference bool
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
	donesBuf [4]func() // dones' first ring
	complete sim.Handler
	// records lists the registered HandOffs, linked through their next
	// fields, for a crash to drop. chain[:nChain] holds, in position
	// order, those whose open hand-off work follows.
	records *HandOffs
	chain   [4]*HandOffs
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
		k:      k,
		params: params,
		meter:  meter,
		idle:   sim.Pos{At: k.Now()},
		sleep:  meter.Handle(platform.StateMCUPowerSave),
		active: meter.Handle(platform.StateMCUActive),
		off:    meter.Handle(platform.StateMCUOff),
	}
	m.complete = m.onComplete
	m.dones.Use(m.donesBuf[:])
	return m
}

// Params reports the electrical parameters the MCU was built with.
func (m *MCU) Params() platform.MCUParams { return m.params }

// Duration reports how long cycles of computation run.
//
//hot:path
func (m *MCU) Duration(cycles int64) sim.Time { return m.params.CyclesToTime(cycles) }

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
		m.meter.Defer(m.idle.At, m.sleep)
	}
}

// asleep reports whether the MCU sits in its sleep state at the kernel's
// dispatch position: it has not run since it last slept, or dispatch has
// passed the completion position of its last work.
//
//hot:path
func (m *MCU) asleep() bool {
	return !m.awake || m.k.Passed(m.idle)
}

// Completion reports the dispatch position at which the work most
// recently submitted completes. The work has completed once
// sim.Kernel.Passed holds for it.
//
//hot:path
func (m *MCU) Completion() sim.Pos { return m.done }

// Busy reports whether the MCU is currently executing (or has queued
// work).
func (m *MCU) Busy() bool { return m.k.Now() < m.idle.At }

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
	return m.execFor(m.params.CyclesToTime(cycles), done)
}

// ExecDur queues computation lasting an explicit wall duration, used for
// timed programmed-I/O loops such as the ShockBurst FIFO clock-in where
// the bus rate, not the instruction count, sets the pace.
func (m *MCU) ExecDur(d sim.Time, done func()) sim.Time {
	if d < 0 {
		panic("mcu: negative duration")
	}
	return m.execFor(d, done)
}

// execFor queues dur of computation, completing with done, behind the
// work submitted so far, yielding first (Yield).
func (m *MCU) execFor(dur sim.Time, done func()) sim.Time {
	if m.nChain > 0 {
		m.yield()
	}
	now := m.k.Now()
	start, woke := now, false
	if m.idle.At > now {
		start = m.idle.At
	} else if m.asleep() {
		// Waking from a low-power mode costs the stand-by→active ramp;
		// the core draws active current during the ramp. Enter first
		// applies the meter's deferred sleep at the last work's end.
		dur += m.params.WakeupLatency
		woke = true
		m.awake = true
		m.meter.Enter(now, m.active)
	}
	// Otherwise the last work ended at this very instant and its
	// completion has not passed yet: the core runs straight on.
	end := start + dur
	// Zero-length work at the instant the queued work runs out leaves the
	// MCU to sleep at the earlier work's completion, ahead of its own.
	own := end != m.idle.At || woke
	m.shared = !own && done == nil
	m.event = 0
	if m.shared {
		return end
	}
	m.done = m.k.Reserve(end)
	if own {
		m.idle = m.done
		m.meter.Defer(end, m.sleep)
	}
	if done != nil {
		m.dones.Push(done)
		m.event = m.k.ScheduleReserved(m.done, m.complete, m.gen)
	}
	return end
}

// onComplete runs the callback of one queued computation.
//
//hot:path
func (m *MCU) onComplete(k *sim.Kernel) {
	if k.Arg() != m.gen {
		return // the node crashed; this computation never completed
	}
	done := m.dones.Pop()
	sim.ProbeCallback(done)
	done()
}

// Crash models a node power loss: all queued computation is abandoned
// (its completion callbacks never run), and the core stops drawing
// current until Reboot. The energy meter is cut off at the crash instant.
func (m *MCU) Crash() {
	for h := m.records; h != nil; h = h.next {
		h.crashed()
	}
	m.nChain, m.last = 0, nil
	m.gen++
	m.dones.Reset()
	m.idle = sim.Pos{At: m.k.Now()}
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
// usable: build one with NewQueue. Once Placed, its first two entries
// live in the queue itself, so it must not be copied after that. Steady
// state allocates nothing.
type Queue[T any] struct {
	m   *MCU
	q   sim.FIFO[queued[T]]
	buf [2]queued[T] // q's first ring
}

type queued[T any] struct {
	gen uint64
	v   T
}

// NewQueue builds a queue for work submitted to m.
func NewQueue[T any](m *MCU) Queue[T] { return Queue[T]{m: m} }

// Placed tells the queue it sits where it stays: it takes its first ring
// from its own storage from now on, instead of growing one. NewQueue
// cannot, as its result is copied into place.
func (q *Queue[T]) Placed() { q.q.Use(q.buf[:]) }

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

// PopBack removes and returns the entry pushed last, whose computation
// was taken back before it ran.
func (q *Queue[T]) PopBack() T { return q.q.PopBack().v }

// DropAbandoned discards the entries of computations a crash abandoned.
// After the MCU's Crash that is every entry.
func (q *Queue[T]) DropAbandoned() {
	for q.q.Len() > 0 && q.q.Peek().gen != q.m.gen {
		q.q.Pop()
	}
}

// Len reports the number of queued entries, abandoned ones included.
func (q *Queue[T]) Len() int { return q.q.Len() }
