// Package tinyos models the embedded operating system of the sensor node:
// a TinyOS-like run-to-completion task scheduler with a bounded task
// queue, interrupt handlers that bypass the queue, and the power policy
// that chooses a low-power mode for the microcontroller during inactive
// periods (§3.2.1, §4.1 of the paper).
package tinyos

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/platform"
	"repro/internal/sim"
)

// DefaultQueueCap mirrors TinyOS 1.x's fixed 8-entry task queue (7 usable
// slots: one is sacrificed to distinguish full from empty).
const DefaultQueueCap = 7

// Task is one unit of deferred computation. Cycles is its calibrated
// execution cost; Run applies its effects when the computation completes.
type Task struct {
	Name   string
	Cycles int64
	Run    func()
}

// Sched is the operating-system scheduler bound to one MCU.
type Sched struct {
	k        *sim.Kernel
	mcu      *mcu.MCU
	queueCap int

	queued  int
	posted  uint64
	dropped uint64

	// tasks holds the Run of every accepted task in posting order; the
	// task completion, bound once as taskDone, pops it.
	tasks    mcu.Queue[func()]
	taskDone func()
}

// NewSched creates a scheduler over the given MCU. queueCap <= 0 selects
// DefaultQueueCap.
func NewSched(k *sim.Kernel, m *mcu.MCU, queueCap int) *Sched {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	s := &Sched{k: k, mcu: m, queueCap: queueCap, tasks: mcu.NewQueue[func()](m)}
	s.taskDone = s.finishTask
	return s
}

// MCU exposes the scheduler's microcontroller.
func (s *Sched) MCU() *mcu.MCU { return s.mcu }

// Kernel exposes the simulation kernel the scheduler runs on.
func (s *Sched) Kernel() *sim.Kernel { return s.k }

// Post enqueues a task, TinyOS-style: it reports false (and drops the
// task) when the queue is full — a real failure mode of overloaded nodes
// that instruction-level simulators surface and simple models miss.
func (s *Sched) Post(t Task) bool {
	if t.Cycles < 0 {
		panic(fmt.Sprintf("tinyos: task %q with negative cycles", t.Name))
	}
	if s.queued >= s.queueCap {
		s.dropped++
		return false
	}
	s.queued++
	s.posted++
	s.tasks.Push(t.Run)
	s.mcu.Exec(t.Cycles, s.taskDone)
	return true
}

// PostFn is Post with inline fields. Posting allocates nothing when run
// is a function value that already exists (a method value bound once).
//
//hot:path
func (s *Sched) PostFn(name string, cycles int64, run func()) bool {
	return s.Post(Task{Name: name, Cycles: cycles, Run: run})
}

// finishTask completes the oldest running task.
//
//hot:path
func (s *Sched) finishTask() {
	run := s.tasks.Pop()
	s.queued--
	if run != nil {
		run()
	}
}

// Crash models a node power loss at the OS level. Call it after the
// MCU's Crash, which abandons every queued computation: the tasks in
// flight never complete, so they leave the queue and free their slots.
func (s *Sched) Crash() {
	s.tasks.DropAbandoned()
	s.queued = s.tasks.Len()
}

// Interrupt runs an interrupt service routine: it executes on the MCU
// like a task (the executor serialises it behind any running task, which
// models interrupts being deferred until the current atomic section
// ends) but is never dropped — hardware events cannot be declined.
func (s *Sched) Interrupt(name string, cycles int64, run func()) {
	if cycles < 0 {
		panic(fmt.Sprintf("tinyos: interrupt %q with negative cycles", name))
	}
	s.mcu.Exec(cycles, run)
}

// BusyLoad occupies the MCU for an explicit duration, modelling
// programmed-I/O transfers (the ShockBurst TX FIFO clock-in) whose pace
// is set by a bus clock rather than an instruction count.
func (s *Sched) BusyLoad(name string, d sim.Time, run func()) {
	s.mcu.ExecDur(d, run)
}

// Posted reports how many tasks were accepted.
func (s *Sched) Posted() uint64 { return s.posted }

// Dropped reports how many tasks were lost to queue overflow.
func (s *Sched) Dropped() uint64 { return s.dropped }

// QueueLen reports the tasks pending or running.
func (s *Sched) QueueLen() int { return s.queued }

// PowerPolicy selects the low-power mode to enter for an expected idle
// gap, mirroring the TinyOS MSP430 power decision: deeper modes have
// longer wakeups and lose more peripheral clocks, so they only pay off
// for long gaps. The paper notes that for its applications the scheduler
// only ever selects the first mode; the policy exists so that other
// workloads exercise the full table.
func PowerPolicy(idleGap sim.Time) energy.State {
	switch {
	case idleGap < 5*sim.Millisecond:
		return platform.StateMCUPowerSave
	case idleGap < 50*sim.Millisecond:
		return platform.StateMCULPM2
	case idleGap < sim.Second:
		return platform.StateMCULPM3
	default:
		return platform.StateMCULPM4
	}
}
