// Package tinyos models the embedded operating system of the sensor node:
// a TinyOS-like run-to-completion task scheduler with a bounded task
// queue, interrupt handlers that bypass the queue, and the power policy
// that chooses a low-power mode for the microcontroller during inactive
// periods (§3.2.1, §4.1 of the paper).
//
// The scheduler keeps no statistics of its own: Post and PostFn report
// whether the queue took a task, and the MCU's energy meter accounts for
// the work. A task with no Run costs no completion event: it is a filed
// hand-off (mcu.HandOffs), holding its queue slot until dispatch passes
// its completion position. A task posted as an interrupt's callback
// would post it (Follow) costs no kernel event at the hand-off either:
// the scheduler opens a hand-off at the interrupt's completion, and
// falls back to a post there if other work reaches the MCU first.
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
// post. A task with no Run and a nonzero duration costs no kernel event.
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

	// queued counts the accepted tasks that complete through an event;
	// handOffs files those that do not, each holding its queue slot
	// until dispatch passes its completion, and holds the hand-off of
	// the task Follow queued last, follow, open until its interrupt
	// completes.
	queued   int
	handOffs mcu.HandOffs
	follow   task

	// tasks holds, in completion order, the Run and Arg of every
	// accepted task with a completion event, and the hand-offs of
	// followed tasks that fell back to a post; the completion, bound
	// once as taskDone, pops them, and arg holds a task's Arg while its
	// Run runs.
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
	s.tasks.Placed()
	s.taskDone = s.finishTask
	m.Register(&s.handOffs, s)
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
	s.mcu.Yield()
	if s.QueueLen() >= s.queueCap {
		return false
	}
	d := s.mcu.Duration(t.Cycles)
	if filed(t.Run, d) {
		s.mcu.ExecDur(d, nil)
		s.handOffs.File()
		return true
	}
	s.accept(t)
	s.mcu.ExecDur(d, s.taskDone)
	return true
}

// filed reports whether a task with run, lasting d, completes without
// a kernel event: it has no Run, and a duration, so its completion
// position is its own.
//
//hot:path
func filed(run func(), d sim.Time) bool {
	return run == nil && d > 0
}

// accept counts t into the queue.
//
//hot:path
func (s *Sched) accept(t Task) {
	s.queued++
	s.tasks.Push(task{run: t.Run, arg: t.Arg, cycles: t.Cycles})
}

// Follow posts t the instant the work submitted last (an interrupt or
// a FIFO clock-in without a callback) completes, as that work's
// completion callback would, but without the kernel event the callback
// costs: the task is accepted, and its computation queued, at once,
// behind a hand-off opened at that work's completion.
//
// That is exact: by the hand-off every task posted before the work it
// follows has completed, so the queue has room for the task there, and
// QueueLen counts it already. Work submitted before the hand-off
// position passes would run ahead of the task had it been posted
// there, so the hand-off falls back first (Undo): the task leaves the
// queue, and is posted at the position after all, through a completion
// event, dropped if the queue is full by then. A crash before the
// hand-off abandons the work and the task together.
//
//hot:path
func (s *Sched) Follow(t Task) {
	if t.Cycles < 0 {
		panic(fmt.Sprintf("tinyos: task %q with negative cycles", t.Name))
	}
	s.follow = task{run: t.Run, arg: t.Arg, cycles: t.Cycles, handoff: true}
	if !s.handOffs.Open(s.mcu.Completion()) {
		// No hand-off: post the task through the work's completion event.
		s.tasks.Push(s.follow)
		s.mcu.Complete(s.taskDone)
		return
	}
	d := s.mcu.Duration(t.Cycles)
	if filed(t.Run, d) {
		s.handOffs.Follow(d, nil)
		s.handOffs.File()
		return
	}
	s.handOffs.Follow(d, s.taskDone)
	s.accept(t)
}

// Undo implements mcu.Undoer: the task Follow queued leaves the queue
// (its computation, and its filed hand-off, the MCU took back), and
// with fallback set it is posted at the hand-off through a completion
// event there.
func (s *Sched) Undo(_ sim.Pos, fallback bool) {
	if !filed(s.follow.run, s.mcu.Duration(s.follow.cycles)) {
		s.tasks.PopBack()
		s.queued--
	}
	if fallback {
		s.tasks.Push(s.follow)
		s.mcu.Complete(s.taskDone)
	}
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
	s.mcu.Exec(cycles, run)
}

// BusyLoad occupies the MCU for an explicit duration, modelling
// programmed-I/O transfers (the ShockBurst TX FIFO clock-in) whose pace
// is set by a bus clock rather than an instruction count.
func (s *Sched) BusyLoad(name string, d sim.Time, run func()) {
	s.mcu.ExecDur(d, run)
}

// QueueLen reports the tasks pending or running.
//
//hot:path
func (s *Sched) QueueLen() int {
	return s.queued + s.handOffs.Len()
}

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
