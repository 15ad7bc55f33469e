// Package tinyos models the embedded operating system of the sensor node:
// a TinyOS-like run-to-completion task scheduler with a bounded task
// queue, interrupt handlers that bypass the queue, and the power policy
// that chooses a low-power mode for the microcontroller during inactive
// periods (§3.2.1, §4.1 of the paper).
//
// The scheduler keeps no statistics of its own: Post and PostFn report
// whether the queue took a task, and the MCU's energy meter accounts for
// the work. A task with no Run costs no completion event: it holds its
// queue slot until dispatch passes its completion position. A task
// chained to an interrupt (Chain) costs no kernel event at the hand-off;
// the MCU holds the chain (mcu.MCU.Chained), and the scheduler takes it
// back before any other work reaches the MCU.
//
// A component can go further and speculate on an interrupt's completion
// callback (Speculate): it submits the interrupt without one, applies
// the callback's decision as of the hand-off right away, chaining the
// work the callback would submit (ChainLoad, Chain), and registers its
// fallback (Speculation). Every entry into the component settles the speculation
// first (Settle), and so does every submission to the MCU while the
// speculation holds chained work: before the hand-off position passes,
// the fallback undoes the speculated effects, takes the chained work
// back (mcu.MCU.UnchainTo) and runs the callback at that position after
// all, through an event there (sim.Kernel.ScheduleReserved).
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
	// slots holds the completion positions of those that do not, each
	// holding its queue slot until dispatch passes it.
	queued int
	slots  sim.FIFO[sim.Pos]

	// tasks holds, in completion order, the Run and Arg of every
	// accepted task with a completion event, and the hand-offs of
	// chained tasks that fell back to a post (see Chain); the
	// completion, bound once as taskDone, pops them, and arg holds a
	// task's Arg while its Run runs. chain is the task Chain queued
	// last, as a hand-off, should it fall back.
	tasks    mcu.Queue[task]
	taskDone func()
	arg      uint64
	chain    task

	// spec is the live speculation (Speculate), nil when none is,
	// specAt its hand-off position, and specChain set once it chained
	// work (ChainLoad).
	spec      Speculation
	specAt    sim.Pos
	specChain bool
}

// Speculation is a component's speculation on the completion callback
// of an interrupt it submitted without one (Sched.Speculate).
type Speculation interface {
	// Unspeculate falls back: it undoes the speculated effects, takes
	// back the chained work (Sched.TakeBack, mcu.MCU.UnchainTo), and
	// runs the callback at the hand-off through an event there
	// (sim.Kernel.ScheduleReserved).
	Unspeculate()
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
	if s.QueueLen() >= s.queueCap {
		return false
	}
	if s.silent(t) {
		s.mcu.Exec(t.Cycles, nil)
		s.slots.Push(s.mcu.Completion())
		return true
	}
	s.accept(t)
	s.mcu.Exec(t.Cycles, s.taskDone)
	return true
}

// silent reports whether t completes without a kernel event: it has no
// Run, and a duration, so its completion position is its own.
//
//hot:path
func (s *Sched) silent(t Task) bool {
	return t.Run == nil && s.mcu.Duration(t.Cycles) > 0
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
	s.settleSlots()
	h := task{run: t.Run, arg: t.Arg, cycles: t.Cycles, handoff: true}
	if s.silent(t) {
		if !s.mcu.Chain(t.Cycles, nil) {
			s.handOff(h)
			return
		}
		s.slots.Push(s.mcu.Completion())
	} else {
		if !s.mcu.Chain(t.Cycles, s.taskDone) {
			s.handOff(h)
			return
		}
		s.accept(t)
	}
	s.chain = h
}

// handOff posts h through a completion event at the hand-off of the
// work submitted last, which has no position of its own to chain to.
func (s *Sched) handOff(h task) {
	s.tasks.Push(h)
	s.mcu.Exec(0, s.taskDone)
}

// ChainLoad is BusyLoad chained to the work submitted last, as Chain is
// Post: the load starts the instant that work completes, with no event
// at the hand-off, and completes without a callback. It reports false,
// queuing nothing, when that work has no completion position of its
// own. Only the live speculation (Speculate) may chain a load, to the
// work whose completion is its hand-off: its fallback takes the load
// back, and any submission to the MCU before the hand-off settles the
// speculation first.
//
//hot:path
func (s *Sched) ChainLoad(d sim.Time) bool {
	if s.spec == nil || s.mcu.Completion() != s.specAt || !s.mcu.ChainDur(d, nil) {
		return false
	}
	s.specChain = true
	return true
}

// settle runs before any work is submitted: a speculation holding
// chained work falls back if its hand-off has not passed, and a chained
// task whose hand-off position has not passed falls back to a post at
// it.
//
//hot:path
func (s *Sched) settle() {
	if s.specChain {
		s.Settle()
	}
	if !s.mcu.Chained() {
		return
	}
	sim.ProbeNote("chained task fallback")
	s.TakeBack()
	s.tasks.Push(s.chain)
	s.mcu.Unchain(s.taskDone)
}

// TakeBack takes the task Chain queued last back out of the queue,
// posting it nowhere; the task must still wait for its hand-off. A
// speculation's fallback calls it for a task its callback will chain
// again, and a chained task that falls back is posted at its hand-off
// from there.
func (s *Sched) TakeBack() {
	if s.chain.run == nil && s.mcu.Duration(s.chain.cycles) > 0 {
		s.slots.PopBack()
		return
	}
	s.tasks.PopBack()
	s.queued--
}

// Speculate registers spec, a speculation on the completion callback of
// work the caller submitted without one, whose completion position at
// is the hand-off: the caller applies the callback's decision as of the
// hand-off right away, chaining any work the callback would submit
// (ChainLoad, Chain). Until dispatch passes the hand-off, every entry
// into the caller's state that the callback reads must first call
// Settle, which falls back (Speculation.Unspeculate), and so does every
// submission to the MCU once work is chained. A speculation still live
// when the next one is registered settles first.
//
//hot:path
func (s *Sched) Speculate(at sim.Pos, spec Speculation) {
	s.Settle()
	s.spec, s.specAt = spec, at
}

// Speculating reports whether a speculation is live: registered, and
// its hand-off not passed.
//
//hot:path
func (s *Sched) Speculating() bool {
	return s.spec != nil && !s.k.Passed(s.specAt)
}

// Settle ends the live speculation: if dispatch has not passed its
// hand-off yet, its fallback runs. A component that speculates calls it
// first at every entry.
//
//hot:path
func (s *Sched) Settle() {
	if s.spec != nil {
		s.settleSpec()
	}
}

// settleSpec is Settle with a speculation registered.
//
//hot:path
func (s *Sched) settleSpec() {
	spec := s.spec
	s.Forget()
	if !s.k.Passed(s.specAt) {
		sim.ProbeNote("speculation fallback")
		spec.Unspeculate()
	}
}

// Forget ends the live speculation without its fallback, for a caller
// that undoes it, and registers the next, itself.
//
//hot:path
func (s *Sched) Forget() {
	s.spec, s.specChain = nil, false
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
// A live speculation must have settled first: the crash is an entry
// into the component that registered it.
func (s *Sched) Crash() {
	s.tasks.DropAbandoned()
	s.queued = s.tasks.Len()
	s.slots.Reset()
	s.Forget()
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
//
//hot:path
func (s *Sched) QueueLen() int {
	s.settleSlots()
	return s.queued + s.slots.Len()
}

// settleSlots frees the slots of the tasks without a completion event
// that dispatch has passed the completion of.
//
//hot:path
func (s *Sched) settleSlots() {
	for s.slots.Len() > 0 && s.k.Passed(s.slots.Peek()) {
		s.slots.Pop()
	}
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
