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

// A hand-off followed by work (HandOffs.Open, Follow) queues that work
// to start the instant the work submitted last completes, without the
// completion event a callback that submitted it would cost. These tests
// run scripts both ways, on both schedulers, and require the hand-off
// run to match the reference, whose interrupt submits the follow-up work
// from its completion callback: the same callbacks run at the same
// instants, a filing record loses the same computations at a crash, and
// the MCU meter holds the same bits.

// chainOp is one scripted action.
type chainOp int

const (
	isrThen  chainOp = iota // an interrupt the follow-up task is handed off to
	plain                   // work with a callback of its own
	crash                   // a crash and reboot
	plainEnd                // plain work filed at the end of the last interrupt
	crashEnd                // a crash filed at the end of the last interrupt
)

// chainStep is one scripted action at an instant.
type chainStep struct {
	at     sim.Time
	op     chainOp
	cycles int64
}

// taskCycles is the length of every follow-up task.
const taskCycles = 900

// owner opens hand-offs and undoes them: its fallback runs fallback,
// the callback the hand-off stood for, at the hand-off.
type owner struct {
	m        *MCU
	h        HandOffs
	fallback func()
}

func (o *owner) Undo(at sim.Pos, fallback bool) {
	if fallback {
		o.m.Complete(o.fallback)
	}
}

// chainScript plays steps on a fresh MCU, having each interrupt's task
// follow the interrupt's hand-off when chain is set and submitting it
// from the interrupt's callback otherwise, and reports what happened.
// Every interrupt is filed on a record that reports the interrupts each
// crash dropped. In the hand-off run, any submission before the hand-off
// undoes it: the owner's fallback then runs at the hand-off and submits
// the task there, as the reference's interrupt callback does.
func chainScript(newKernel func(int64) *sim.Kernel, steps []chainStep, chain bool) string {
	k := newKernel(1)
	l := energy.NewLedger()
	m := New(k, platform.IMEC().MCU, l)
	var isrs HandOffs
	m.Register(&isrs, nil)
	o := &owner{m: m}
	m.Register(&o.h, o)
	var log []string
	note := func(what string, n int) func() {
		return func() { log = append(log, fmt.Sprintf("%v %s%d", k.Now(), what, n)) }
	}
	task := func(i int) func() {
		run := note("task", i)
		return func() { m.Exec(taskCycles, run) }
	}
	crashNow := func(*sim.Kernel) {
		m.Crash()
		log = append(log, fmt.Sprintf("%v crash lost %d", k.Now(), isrs.Settle()))
		m.Reboot()
	}
	for i, st := range steps {
		i, st := i, st
		k.ScheduleAt(st.at, func(k *sim.Kernel) {
			switch st.op {
			case isrThen:
				var end sim.Time
				if chain {
					end = m.Exec(st.cycles, nil)
					isrs.File()
					if o.h.Open(m.Completion()) && o.h.Follow(m.Duration(taskCycles), note("task", i)) {
						o.fallback = task(i)
					} else {
						m.Exec(0, task(i))
					}
				} else {
					end = m.Exec(st.cycles, task(i))
					isrs.File()
				}
				if i+1 < len(steps) {
					switch next := steps[i+1]; next.op {
					case plainEnd:
						k.ScheduleAt(end, func(*sim.Kernel) { m.Exec(next.cycles, note("plain", i+1)) })
					case crashEnd:
						k.ScheduleAt(end, crashNow)
					}
				}
			case plain:
				m.Exec(st.cycles, note("plain", i))
			case crash:
				crashNow(k)
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

// TestChainMatchesCallbackSubmission pins Open, Follow and the undoing
// of hand-offs against work submitted from a completion callback, one
// hazard per case, on both schedulers.
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
		{"crash at the hand-off, after its position", []chainStep{
			{0, isrThen, 300}, {0, crashEnd, 0}}},
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

// TestChainedUntilHandOff checks what Pending reports for a hand-off
// work follows: true from Open until dispatch passes the hand-off,
// false after Withdraw or a crash, and no hand-off opens behind
// zero-length work with no position of its own.
func TestChainedUntilHandOff(t *testing.T) {
	for name, k := range map[string]*sim.Kernel{"wheel": sim.NewKernel(1), "heap": sim.NewHeapKernel(1)} {
		m := New(k, platform.IMEC().MCU, energy.NewLedger())
		o := &owner{m: m, fallback: func() {}}
		m.Register(&o.h, o)
		open := func() bool {
			return o.h.Open(m.Completion()) && o.h.Follow(m.Duration(taskCycles), nil)
		}
		var handOff sim.Pos
		k.ScheduleAt(0, func(*sim.Kernel) {
			m.Exec(300, nil)
			handOff = m.Completion()
			if !open() || !o.h.Pending() {
				t.Errorf("%s: nothing follows an interrupt", name)
			}
		})
		k.RunUntil(sim.Microsecond)
		if !o.h.Pending() {
			t.Errorf("%s: hand-off not pending before its position", name)
		}
		k.RunUntil(handOff.At + 1)
		if o.h.Pending() {
			t.Errorf("%s: hand-off still pending after its position", name)
		}
		k.ScheduleAt(sim.Millisecond, func(*sim.Kernel) {
			m.Exec(300, nil)
			open()
			if !o.h.Withdraw() || o.h.Pending() {
				t.Errorf("%s: hand-off pending after Withdraw", name)
			}
			m.Exec(300, nil)
			open()
			m.Crash()
			if o.h.Pending() {
				t.Errorf("%s: hand-off pending after a crash", name)
			}
			m.Reboot()
			m.Exec(300, nil)
			m.Exec(0, nil)
			if o.h.Open(m.Completion()) || o.h.Pending() {
				t.Errorf("%s: hand-off opened behind zero-length work with no position of its own", name)
			}
		})
		k.Run()
	}
}

// TestChainBehindCallbackPanics pins Follow's precondition: the work it
// follows has no completion callback, whose event holds the position a
// fallback would schedule.
func TestChainBehindCallbackPanics(t *testing.T) {
	k, m, _ := newMCU(t)
	o := &owner{m: m}
	m.Register(&o.h, o)
	defer func() {
		if recover() == nil {
			t.Fatal("Follow behind work with a callback did not panic")
		}
	}()
	k.ScheduleAt(0, func(*sim.Kernel) {
		m.Exec(300, func() {})
		o.h.Open(m.Completion())
		o.h.Follow(m.Duration(taskCycles), func() {})
	})
	k.Run()
}

// TestMarksSettleAcrossCrash crashes with filed interrupts completed,
// running and queued, once submitted without a callback and once with
// one: the record's Settle must count as dropped exactly the interrupts
// whose callbacks never ran, including at a crash in the instant an
// interrupt completes, filed ahead of its position and after it.
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
				var isrs HandOffs
				m.Register(&isrs, nil)
				submitted, completed := 0, 0
				var done func()
				if callback {
					done = func() { completed++ }
				}
				crashNow := func(*sim.Kernel) {
					m.Crash()
					lost[callback] = isrs.Settle()
					if callback && lost[true] != submitted-completed {
						t.Errorf("%s/%s: the record dropped %d interrupts, the callbacks %d",
							name, crashAt.name, lost[true], submitted-completed)
					}
				}
				k.ScheduleAt(0, func(k *sim.Kernel) {
					for range 3 {
						m.Exec(800, done)
						isrs.File()
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
				if n := isrs.Settle(); n != 0 {
					t.Errorf("%s/%s: a second Settle reported %d more", name, crashAt.name, n)
				}
			}
			if lost[false] != lost[true] {
				t.Errorf("%s/%s: the record dropped %d interrupts without callbacks, %d with them",
					name, crashAt.name, lost[false], lost[true])
			}
		}
	}
}

// TestCrashAtHandOffPositionDropsIt crashes in an event at the very
// position an elided completion reserved: dispatch has not passed it,
// so the interrupt filed there and the hand-off open there are dropped,
// and neither the work that followed it nor any fallback runs.
func TestCrashAtHandOffPositionDropsIt(t *testing.T) {
	for name, newKernel := range map[string]func(int64) *sim.Kernel{"wheel": sim.NewKernel, "heap": sim.NewHeapKernel} {
		k := newKernel(1)
		m := New(k, platform.IMEC().MCU, energy.NewLedger())
		var isrs HandOffs
		m.Register(&isrs, nil)
		ran := 0
		o := &owner{m: m, fallback: func() { ran++ }}
		m.Register(&o.h, o)
		lost := -1
		k.ScheduleAt(0, func(k *sim.Kernel) {
			m.Exec(300, nil)
			isrs.File()
			at := m.Completion()
			if !o.h.Open(at) || !o.h.Follow(m.Duration(taskCycles), func() { ran++ }) {
				t.Fatalf("%s: nothing follows the interrupt", name)
			}
			k.ScheduleReserved(at, func(*sim.Kernel) {
				if !o.h.Pending() {
					t.Errorf("%s: hand-off passed at its own position", name)
				}
				m.Crash()
				lost = isrs.Settle()
				m.Reboot()
			}, 0)
		})
		k.Run()
		if lost != 1 || ran != 0 || o.h.Pending() {
			t.Errorf("%s: crash at the hand-off position dropped %d interrupts, ran %d callbacks, pending %v; want 1, 0, false",
				name, lost, ran, o.h.Pending())
		}
	}
}

// TestUnchainToTakesBackChains has work with and without callbacks
// follow an interrupt, two hand-offs deep and with a second record
// joining the first, and withdraws the first hand-off: the MCU must be
// as if only the interrupt had been submitted, its completion reported
// at the interrupt's position and its meter holding the same bits, on
// both schedulers.
func TestUnchainToTakesBackChains(t *testing.T) {
	run := func(newKernel func(int64) *sim.Kernel, chain bool, last func()) string {
		k := newKernel(1)
		l := energy.NewLedger()
		m := New(k, platform.IMEC().MCU, l)
		first, second, joined := &owner{m: m}, &owner{m: m}, &owner{m: m}
		for _, o := range []*owner{first, second, joined} {
			m.Register(&o.h, o)
		}
		var log []string
		k.ScheduleAt(0, func(*sim.Kernel) {
			m.Exec(300, nil)
			at := m.Completion()
			if chain {
				if !first.h.Open(at) || !joined.h.Follow(200*sim.Microsecond, nil) ||
					!second.h.Open(m.Completion()) || !second.h.Follow(m.Duration(taskCycles), last) {
					log = append(log, "not chained")
				}
				first.h.Withdraw()
				if first.h.Pending() || second.h.Pending() || joined.h.Pending() {
					log = append(log, "still pending")
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
				t.Errorf("%s: after Withdraw\n%s\nwant the interrupt alone\n%s", name, got, want)
			}
		}
	}
	if ran {
		t.Error("the callback of work taken back ran")
	}
}

// TestChainDurRejectsNegative pins Follow's guard, as ExecDur's.
func TestChainDurRejectsNegative(t *testing.T) {
	_, m, _ := newMCU(t)
	var h HandOffs
	m.Register(&h, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Follow with a negative duration did not panic")
		}
	}()
	h.Follow(-1, nil)
}

// TestReferenceAndSettledHandOffs covers the rest of the record's
// contract: a Reference MCU opens no hand-off; Complete gives work
// without a position of its own a fresh one; a hand-off dispatch has passed settles without
// its fallback; Follow refuses with no hand-off open; and Yield undoes a
// hand-off, taking back the filed hand-offs of the work that followed
// it but not those filed before.
func TestReferenceAndSettledHandOffs(t *testing.T) {
	k, m, _ := newMCU(t)
	ref := New(k, platform.IMEC().MCU, energy.NewLedger())
	ref.Reference()
	var filed, refFiled HandOffs
	var ring [4]sim.Pos
	m.Register(&filed, nil)
	ref.Register(&refFiled, nil)
	refFiled.Use(ring[:])
	o, refOwner := &owner{m: m, fallback: func() {}}, &owner{m: ref}
	m.Register(&o.h, o)
	ref.Register(&refOwner.h, refOwner)
	k.ScheduleAt(0, func(*sim.Kernel) {
		ref.Exec(300, nil)
		refFiled.File()
		if refOwner.h.Open(ref.Completion()) || refOwner.h.Pending() {
			t.Error("a Reference MCU opened a hand-off")
		}
		ref.Exec(0, nil) // no position of its own: Complete takes a fresh one
		ref.Complete(func() {})
		m.Exec(300, nil)
		if o.h.Follow(m.Duration(100), nil) {
			t.Error("Follow with no hand-off open queued work")
		}
		if !o.h.Open(m.Completion()) {
			t.Error("no hand-off opened")
		}
	})
	k.ScheduleAt(sim.Millisecond, func(*sim.Kernel) {
		if o.h.Settle() != 0 || o.h.Pending() {
			t.Error("a passed hand-off did not settle")
		}
		m.Exec(300, nil)
		o.h.File()
		o.h.Open(m.Completion())
		o.h.Follow(m.Duration(100), nil)
		o.h.File()
		m.Yield()
		if o.h.Len() != 1 || o.h.Pending() {
			t.Errorf("undone hand-off left %d filed, pending %v; want the one filed before it", o.h.Len(), o.h.Pending())
		}
		m.Exec(100, nil)
	})
	k.Run()
	if k.Executed() != 4 || refFiled.Len() != 0 {
		t.Errorf("%d events, %d filed left; want 4 (two scripts, a completion and a fallback), 0",
			k.Executed(), refFiled.Len())
	}
}
