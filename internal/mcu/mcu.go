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

	busyUntil  sim.Time
	sleeping   bool
	sleepState energy.State
	// gen invalidates queued completions across a crash: a completion
	// only applies its effects when the generation it was issued under
	// is still current.
	gen uint64
	// pending holds each queued computation's completion state; complete
	// is its handler, bound once so queuing work allocates nothing.
	pending  sim.Pending[completion]
	complete sim.Handler

	execs      uint64
	cyclesRun  int64
	activeTime sim.Time
}

// New creates an MCU, registers its energy meter on the ledger and starts
// it in the power-save state at the kernel's current instant.
func New(k *sim.Kernel, params platform.MCUParams, ledger *energy.Ledger) *MCU {
	v := params.VoltageV
	meter := energy.NewMeter(platform.ComponentMCU, map[energy.State]energy.Draw{
		platform.StateMCUOff:       {},
		platform.StateMCUActive:    {CurrentA: params.ActiveA, VoltageV: v},
		platform.StateMCUPowerSave: {CurrentA: params.PowerSaveA, VoltageV: v},
		platform.StateMCULPM1:      {CurrentA: params.DeepModesA[0], VoltageV: v},
		platform.StateMCULPM2:      {CurrentA: params.DeepModesA[1], VoltageV: v},
		platform.StateMCULPM3:      {CurrentA: params.DeepModesA[2], VoltageV: v},
		platform.StateMCULPM4:      {CurrentA: params.DeepModesA[3], VoltageV: v},
	})
	ledger.Register(meter)
	meter.Start(k.Now(), platform.StateMCUPowerSave)
	m := &MCU{
		k:          k,
		params:     params,
		meter:      meter,
		busyUntil:  k.Now(),
		sleeping:   true,
		sleepState: platform.StateMCUPowerSave,
	}
	m.complete = m.onComplete
	return m
}

// completion is the state of one queued computation.
type completion struct {
	gen  uint64
	done func()
}

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
	m.sleepState = s
	if m.sleeping {
		m.meter.Transition(m.k.Now(), s)
	}
}

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
// Queuing allocates nothing: pass a done bound once (a method value kept
// in a field), not a fresh closure, to keep the caller allocation-free
// too.
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

	start := now
	if m.busyUntil > now {
		start = m.busyUntil
	} else if m.sleeping {
		// Waking from a low-power mode costs the stand-by→active ramp;
		// the core draws active current during the ramp.
		dur += m.params.WakeupLatency
		m.sleeping = false
		m.meter.Transition(now, platform.StateMCUActive)
	}
	end := start + dur
	m.busyUntil = end
	m.activeTime += dur
	m.pending.ScheduleAt(m.k, end, m.complete, completion{gen: m.gen, done: done})
	return end
}

// onComplete finishes one queued computation.
//
//hot:path
func (m *MCU) onComplete(k *sim.Kernel) {
	c := m.pending.Take(k)
	if m.gen != c.gen {
		return // the node crashed; this computation never completed
	}
	if c.done != nil {
		c.done()
	}
	// Sleep only if the completion callback queued nothing further.
	if end := k.Now(); m.busyUntil == end && !m.sleeping {
		m.sleeping = true
		m.meter.Transition(end, m.sleepState)
	}
}

// Crash models a node power loss: all queued computation is abandoned
// (its completion callbacks never run), and the core stops drawing
// current until Reboot. ActiveTime keeps the already-charged estimate of
// the aborted work; the energy meter — the accounting source of truth —
// is cut off at the crash instant.
func (m *MCU) Crash() {
	m.gen++
	m.busyUntil = m.k.Now()
	m.sleeping = true
	m.meter.Transition(m.k.Now(), platform.StateMCUOff)
}

// Reboot restores the core after a Crash: it comes up in the configured
// sleep state, ready for the boot code's first Exec.
func (m *MCU) Reboot() {
	m.meter.Transition(m.k.Now(), m.sleepState)
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

// Len reports the number of queued entries, abandoned ones included.
func (q *Queue[T]) Len() int { return q.q.Len() }
