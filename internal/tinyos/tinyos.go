// Package tinyos models the embedded operating system of the sensor node:
// a TinyOS-like run-to-completion task scheduler with a bounded task
// queue, interrupt handlers that bypass the queue, and the power policy
// that chooses a low-power mode for the microcontroller during inactive
// periods (§3.2.1, §4.1 of the paper).
//
// The scheduler keeps no statistics of its own: Post and PostFn report
// whether the queue took a task, and the MCU's energy meter accounts for
// the work. A task chained to an interrupt (Chain) costs no kernel event
// at the hand-off; the MCU holds the chain (mcu.MCU.Chained), and the
// scheduler takes it back before any other work reaches the MCU.
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
// execution cost; Run applies its effects when the computation completes,
// and reads Arg back with Sched.Arg, so one Run bound once serves every
// post.
type Task struct {
	Name   string
	Cycles int64
	Run    func()
	Arg    uint64
}

// task is the completion state of an accepted task, or of a hand-off
// that posts one.
type task struct {
	run     func()
	arg     uint64
	cycles  int64
	handoff bool
}

// Sched is the operating-system scheduler bound to one MCU.
type Sched struct {
	k        *sim.Kernel
	mcu      *mcu.MCU
	queueCap int

	queued int

	// tasks holds, in completion order, the Run and Arg of every
	// accepted task, and the hand-offs of chained tasks that fell back
	// to a post (see Chain); the completion, bound once as taskDone, pops
	// them, and arg holds a task's Arg while its Run runs.
	tasks    mcu.Queue[task]
	taskDone func()
	arg      uint64
}

// NewSched creates a scheduler over the given MCU. queueCap <= 0 selects
// DefaultQueueCap.
func NewSched(k *sim.Kernel, m *mcu.MCU, queueCap int) *Sched {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	s := &Sched{k: k, mcu: m, queueCap: queueCap, tasks: mcu.NewQueue[task](m)}
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
	s.settle()
	if s.queued >= s.queueCap {
		return false
	}
	s.accept(t)
	s.mcu.Exec(t.Cycles, s.taskDone)
	return true
}

// accept counts t into the queue.
//
//hot:path
func (s *Sched) accept(t Task) {
	s.queued++
	s.tasks.Push(task{run: t.Run, arg: t.Arg, cycles: t.Cycles})
}

// Chain posts t the instant the work submitted last (an interrupt or a
// FIFO load without a callback) completes, as that work's completion
// callback would, but without the kernel event the callback costs.
//
// The task is accepted, and its computation queued, at once. That is
// exact: by the hand-off position every task posted before the work
// it follows has completed, so the queue has room for it there. Until
// that position passes, QueueLen counts the task already. Work
// submitted before then would run ahead of the task had it been posted
// at the hand-off, so the submission first falls back: the task leaves
// the queue, and the work it follows completes through a kernel event
// at the position reserved for it, which posts the task there as an
// ordinary Post would, dropping it if the queue is full by then. A
// crash before the hand-off abandons the work and the task together.
//
//hot:path
func (s *Sched) Chain(t Task) {
	if t.Cycles < 0 {
		panic(fmt.Sprintf("tinyos: task %q with negative cycles", t.Name))
	}
	if !s.mcu.Chain(t.Cycles, s.taskDone) {
		// The work has no position to chain to: hand off through an event.
		s.tasks.Push(task{run: t.Run, arg: t.Arg, cycles: t.Cycles, handoff: true})
		return
	}
	s.accept(t)
}

// settle runs before any work is submitted: a chained task whose
// hand-off position has not passed falls back to a post at it.
//
//hot:path
func (s *Sched) settle() {
	if !s.mcu.Chained() {
		return
	}
	t := s.tasks.PopBack()
	t.handoff = true
	s.tasks.Push(t)
	s.queued--
	s.mcu.Unchain()
}

// Arg reports the Arg of the task whose Run is running.
func (s *Sched) Arg() uint64 { return s.arg }

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
	t := s.tasks.Pop()
	if t.handoff {
		s.Post(Task{Cycles: t.cycles, Run: t.run, Arg: t.arg})
		return
	}
	s.queued--
	if t.run != nil {
		s.arg = t.arg
		t.run()
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
	s.settle()
	s.mcu.Exec(cycles, run)
}

// BusyLoad occupies the MCU for an explicit duration, modelling
// programmed-I/O transfers (the ShockBurst TX FIFO clock-in) whose pace
// is set by a bus clock rather than an instruction count.
func (s *Sched) BusyLoad(name string, d sim.Time, run func()) {
	s.settle()
	s.mcu.ExecDur(d, run)
}

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
