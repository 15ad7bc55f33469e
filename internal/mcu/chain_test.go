package mcu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Chain queues work to start the instant the work submitted last
// completes, without the completion event a callback that submitted it
// would cost. These tests run scripts both ways, on both schedulers,
// and require the chained run to match the reference, whose interrupt
// submits the follow-up work from its completion callback: the same
// callbacks run at the same instants, a Marks loses the same
// computations at a crash, and the MCU meter holds the same bits.

// chainOp is one scripted action.
type chainOp int

const (
	isrThen  chainOp = iota // an interrupt the follow-up task is handed off to
	plain                   // work with a callback of its own
	crash                   // a crash and reboot
	plainEnd                // plain work filed at the end of the last interrupt
)

// chainStep is one scripted action at an instant.
type chainStep struct {
	at     sim.Time
	op     chainOp
	cycles int64
}

// taskCycles is the length of every follow-up task.
const taskCycles = 900

// chainScript plays steps on a fresh MCU, chaining each interrupt's task
// when chain is set and submitting it from the interrupt's callback
// otherwise, and reports what happened. Every interrupt is marked on a
// Marks, settled at each crash. In the chained run any submission first
// falls back while Chained reports a task waiting for its hand-off: the
// task's callback then runs at the hand-off and submits the task there,
// as the reference's interrupt callback does.
func chainScript(newKernel func(int64) *sim.Kernel, steps []chainStep, chain bool) string {
	k := newKernel(1)
	l := energy.NewLedger()
	m := New(k, platform.IMEC().MCU, l)
	var marks Marks
	m.Track(&marks)
	var log []string
	note := func(what string, n int) func() {
		return func() { log = append(log, fmt.Sprintf("%v %s%d", k.Now(), what, n)) }
	}
	// handOff is set for each chained task that fell back, or had no
	// position to chain to: its callback runs at the hand-off.
	handOff := map[int]bool{}
	pending := -1 // the task chained last
	var pendingDone func()
	submit := func(f func()) {
		if chain && m.Chained() {
			handOff[pending] = true
			m.Unchain(pendingDone)
		}
		f()
	}
	task := func(i int) func() {
		run := note("task", i)
		return func() { submit(func() { m.Exec(taskCycles, run) }) }
	}
	for i, st := range steps {
		i, st := i, st
		k.ScheduleAt(st.at, func(k *sim.Kernel) {
			switch st.op {
			case isrThen:
				var end sim.Time
				if chain {
					submit(func() { end = m.Exec(st.cycles, nil) })
					marks.Mark()
					done := note("task", i)
					chained := func() {
						if handOff[i] {
							handOff[i] = false
							task(i)()
							return
						}
						done()
					}
					if !m.Chain(taskCycles, chained) {
						handOff[i] = true
						m.Exec(0, chained)
					}
					pending, pendingDone = i, chained
				} else {
					end = m.Exec(st.cycles, task(i))
					marks.Mark()
				}
				if i+1 < len(steps) && steps[i+1].op == plainEnd {
					next := steps[i+1]
					k.ScheduleAt(end, func(*sim.Kernel) {
						submit(func() { m.Exec(next.cycles, note("plain", i+1)) })
					})
				}
			case plain:
				submit(func() { m.Exec(st.cycles, note("plain", i)) })
			case crash:
				m.Crash()
				log = append(log, fmt.Sprintf("%v crash lost %d", k.Now(), marks.Settle()))
				m.Reboot()
			}
		})
	}
	k.RunUntil(sim.Second)
	l.Flush(k.Now())
	meter := l.Meter(platform.ComponentMCU)
	for _, st := range meter.States() {
		log = append(log, fmt.Sprintf("%s %v %x", st, meter.TimeIn(st), math.Float64bits(meter.EnergyInJ(st))))
	}
	return strings.Join(log, "\n")
}

// TestChainMatchesCallbackSubmission pins Chain, Chained and Unchain
// against work submitted from a completion callback, one hazard per
// case, on both schedulers.
func TestChainMatchesCallbackSubmission(t *testing.T) {
	us := sim.Microsecond
	p := platform.IMEC().MCU
	isrEnd := p.WakeupLatency + p.CyclesToTime(300)
	cases := []struct {
		name  string
		steps []chainStep
	}{
		{"alone", []chainStep{{0, isrThen, 300}}},
		{"behind queued work", []chainStep{
			{0, plain, 2000}, {10 * us, isrThen, 300}, {5 * sim.Millisecond, isrThen, 300}}},
		{"work before the hand-off", []chainStep{
			{0, isrThen, 3000}, {100 * us, plain, 200}}},
		{"work at the hand-off, ahead of its position", []chainStep{
			{0, isrThen, 300}, {isrEnd, plain, 200}}},
		{"work at the hand-off, after its position", []chainStep{
			{0, isrThen, 300}, {0, plainEnd, 200}}},
		{"work before the hand-off and at it, after its position", []chainStep{
			{0, isrThen, 3000}, {0, plainEnd, 200}, {100 * us, plain, 200}}},
		{"interrupt before an earlier hand-off", []chainStep{
			{0, plain, 9000}, {10 * us, isrThen, 300}, {20 * us, isrThen, 300}}},
		{"crash before the hand-off", []chainStep{
			{0, isrThen, 3000}, {100 * us, crash, 0}, {2 * sim.Millisecond, isrThen, 300}}},
		{"crash while the chained work runs", []chainStep{
			{0, isrThen, 300}, {100 * us, crash, 0}, {2 * sim.Millisecond, isrThen, 300}}},
		{"crash at the hand-off, ahead of its position", []chainStep{
			{0, isrThen, 300}, {isrEnd, crash, 0}}},
		{"crash with interrupts queued", []chainStep{
			{0, plain, 4000}, {10 * us, isrThen, 300}, {20 * us, isrThen, 300}, {30 * us, crash, 0}}},
		{"zero-length interrupt at a completion", []chainStep{
			{0, plain, 2000}, {0, isrThen, 0}, {100 * us, isrThen, 0}}},
	}
	for _, kern := range []struct {
		name string
		new  func(int64) *sim.Kernel
	}{{"wheel", sim.NewKernel}, {"heap", sim.NewHeapKernel}} {
		for _, c := range cases {
			want := chainScript(kern.new, c.steps, false)
			if got := chainScript(kern.new, c.steps, true); got != want {
				t.Errorf("%s/%s: chained run\n%s\nwant the callback submission's\n%s", kern.name, c.name, got, want)
			}
		}
	}
}

// TestChainedUntilHandOff checks what Chained reports: true from Chain
// until dispatch passes the hand-off position, false after Unchain, a
// crash, or a chain with no position of its own.
func TestChainedUntilHandOff(t *testing.T) {
	for name, k := range map[string]*sim.Kernel{"wheel": sim.NewKernel(1), "heap": sim.NewHeapKernel(1)} {
		m := New(k, platform.IMEC().MCU, energy.NewLedger())
		done := func() {}
		var handOff sim.Pos
		k.ScheduleAt(0, func(*sim.Kernel) {
			m.Exec(300, nil)
			handOff = m.Completion()
			if !m.Chain(taskCycles, done) || !m.Chained() {
				t.Errorf("%s: nothing chained behind an interrupt", name)
			}
		})
		k.RunUntil(sim.Microsecond)
		if !m.Chained() {
			t.Errorf("%s: chain not waiting before its hand-off", name)
		}
		k.RunUntil(handOff.At + 1)
		if m.Chained() {
			t.Errorf("%s: chain still waiting after its hand-off", name)
		}
		k.ScheduleAt(sim.Millisecond, func(*sim.Kernel) {
			m.Exec(300, nil)
			m.Chain(taskCycles, done)
			m.Unchain(done)
			if m.Chained() {
				t.Errorf("%s: chain waiting after Unchain", name)
			}
			m.Exec(300, nil)
			m.Chain(taskCycles, done)
			m.Crash()
			if m.Chained() {
				t.Errorf("%s: chain waiting after a crash", name)
			}
			m.Reboot()
			m.Exec(300, nil)
			m.Exec(0, nil)
			if m.Chain(taskCycles, done) || m.Chained() {
				t.Errorf("%s: chained behind zero-length work with no position of its own", name)
			}
		})
		k.Run()
	}
}

// TestChainBehindCallbackPanics pins Chain's precondition: the work it
// follows has no completion callback, whose event holds the position an
// Unchain would schedule.
func TestChainBehindCallbackPanics(t *testing.T) {
	k, m, _ := newMCU(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Chain behind work with a callback did not panic")
		}
	}()
	k.ScheduleAt(0, func(*sim.Kernel) {
		m.Exec(300, func() {})
		m.Chain(taskCycles, func() {})
	})
	k.Run()
}

// TestMarksSettleAcrossCrash crashes with marked interrupts completed,
// running and queued, once submitted without a callback and once with
// one: Marks must count as abandoned exactly the interrupts whose
// callbacks never ran, including at a crash in the instant an interrupt
// completes, filed ahead of its position and after it.
func TestMarksSettleAcrossCrash(t *testing.T) {
	p := platform.IMEC().MCU
	isr := p.CyclesToTime(800)
	first := p.WakeupLatency + isr // the first interrupt's end
	for name, newKernel := range map[string]func(int64) *sim.Kernel{"wheel": sim.NewKernel, "heap": sim.NewHeapKernel} {
		for _, crashAt := range []struct {
			name  string
			at    sim.Time
			after bool // filed at the first interrupt's submission, after its position
		}{
			{"before any completion", first - 1, false},
			{"at a completion, ahead of its position", first, false},
			{"at a completion, after its position", first, true},
			{"between completions", first + isr/2, false},
			{"after every completion", first + 4*isr, false},
		} {
			lost := map[bool]int{}
			for _, callback := range []bool{false, true} {
				k := newKernel(1)
				m := New(k, p, energy.NewLedger())
				var marks Marks
				m.Track(&marks)
				submitted, completed := 0, 0
				var done func()
				if callback {
					done = func() { completed++ }
				}
				crashNow := func(*sim.Kernel) {
					m.Crash()
					lost[callback] = marks.Settle()
					if callback && lost[true] != submitted-completed {
						t.Errorf("%s/%s: Marks lost %d interrupts, the callbacks %d",
							name, crashAt.name, lost[true], submitted-completed)
					}
				}
				k.ScheduleAt(0, func(k *sim.Kernel) {
					for range 3 {
						m.Exec(800, done)
						marks.Mark()
						submitted++
					}
					if crashAt.after {
						k.ScheduleAt(crashAt.at, crashNow)
					}
				})
				if !crashAt.after {
					k.ScheduleAt(crashAt.at, crashNow)
				}
				k.Run()
				if n := marks.Settle(); n != 0 {
					t.Errorf("%s/%s: a second Settle reported %d more", name, crashAt.name, n)
				}
			}
			if lost[false] != lost[true] {
				t.Errorf("%s/%s: Marks lost %d interrupts without callbacks, %d with them",
					name, crashAt.name, lost[false], lost[true])
			}
		}
	}
}

// TestUnchainToTakesBackChains chains work with and without callbacks
// behind an interrupt, two deep, and takes it all back with UnchainTo:
// the MCU must be as if only the interrupt had been submitted, its
// completion reported at the interrupt's position and its meter holding
// the same bits, on both schedulers.
func TestUnchainToTakesBackChains(t *testing.T) {
	run := func(newKernel func(int64) *sim.Kernel, chain bool, last func()) string {
		k := newKernel(1)
		l := energy.NewLedger()
		m := New(k, platform.IMEC().MCU, l)
		var log []string
		k.ScheduleAt(0, func(*sim.Kernel) {
			m.Exec(300, nil)
			at := m.Completion()
			if chain {
				if !m.ChainDur(200*sim.Microsecond, nil) || !m.Chain(taskCycles, last) || !m.Chained() {
					log = append(log, "not chained")
				}
				m.UnchainTo(at)
				if m.Chained() {
					log = append(log, "still chained")
				}
			}
			log = append(log, fmt.Sprintf("completes %v busy %v", m.Completion() == at, m.Busy()))
		})
		k.Run()
		l.Flush(k.Now())
		meter := l.Meter(platform.ComponentMCU)
		for _, st := range meter.States() {
			log = append(log, fmt.Sprintf("%s %v %x", st, meter.TimeIn(st), math.Float64bits(meter.EnergyInJ(st))))
		}
		return fmt.Sprintf("%s events %d", strings.Join(log, "\n"), k.Executed())
	}
	ran := false
	for name, newKernel := range map[string]func(int64) *sim.Kernel{"wheel": sim.NewKernel, "heap": sim.NewHeapKernel} {
		want := run(newKernel, false, nil)
		for _, last := range []func(){nil, func() { ran = true }} {
			if got := run(newKernel, true, last); got != want {
				t.Errorf("%s: after UnchainTo\n%s\nwant the interrupt alone\n%s", name, got, want)
			}
		}
	}
	if ran {
		t.Error("the callback of work taken back ran")
	}
}

// TestChainDurRejectsNegative pins ChainDur's guard, as ExecDur's.
func TestChainDurRejectsNegative(t *testing.T) {
	_, m, _ := newMCU(t)
	defer func() {
		if recover() == nil {
			t.Fatal("ChainDur with a negative duration did not panic")
		}
	}()
	m.ChainDur(-1, nil)
}
