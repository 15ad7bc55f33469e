package tinyos

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Sched.Follow posts a task the instant an interrupt completes without
// the completion event a callback would cost. These tests run scripts
// both ways, on both schedulers, and require the hand-off run to match
// the reference, whose interrupt posts the task from its completion
// callback: the same tasks run at the same instants in the same order,
// the same posts are dropped, and the MCU meter holds the same bits.
// A task the hand-off drops never shows in the run log.

// chainOp is one scripted action.
type chainOp int

const (
	chainISR  chainOp = iota // an interrupt that hands off a task
	plainISR                 // an interrupt with a callback of its own
	post                     // a task post
	crash                    // a crash and reboot of the MCU and OS
	postLater                // a post filed at the end of the last chained interrupt
)

// chainStep is one scripted action at an instant.
type chainStep struct {
	at     sim.Time
	op     chainOp
	cycles int64
}

// chainRun plays steps on a fresh MCU and scheduler with queue capacity
// queueCap, having each chainISR's task Follow it when chain is set and posting
// it from the interrupt's callback otherwise, and reports what happened.
func chainRun(newKernel func(int64) *sim.Kernel, steps []chainStep, queueCap int, chain bool) string {
	k := newKernel(1)
	l := energy.NewLedger()
	m := mcu.New(k, platform.IMEC().MCU, l)
	s := NewSched(k, m, queueCap)
	var log []string
	note := func(what string, n int) func() {
		return func() { log = append(log, fmt.Sprintf("%v %s%d arg=%d", k.Now(), what, n, s.Arg())) }
	}
	for i, st := range steps {
		i, st := i, st
		k.ScheduleAt(st.at, func(k *sim.Kernel) {
			switch st.op {
			case chainISR:
				task := Task{Name: "chained", Cycles: 900, Run: note("task", i), Arg: uint64(i)}
				if chain {
					s.Interrupt("isr", st.cycles, nil)
				} else {
					s.Interrupt("isr", st.cycles, func() { s.Post(task) })
				}
				isrEnd := m.Completion().At
				if chain {
					s.Follow(task)
				}
				if i+1 < len(steps) && steps[i+1].op == postLater {
					k.ScheduleAt(isrEnd+1, func(*sim.Kernel) {
						if !s.PostFn("later", steps[i+1].cycles, note("later", i+1)) {
							log = append(log, fmt.Sprintf("%v dropped%d", k.Now(), i+1))
						}
					})
				}
			case plainISR:
				s.Interrupt("plain", st.cycles, note("isr", i))
			case post:
				if !s.PostFn("post", st.cycles, note("post", i)) {
					log = append(log, fmt.Sprintf("%v dropped%d", k.Now(), i))
				}
			case crash:
				m.Crash()
				s.Crash()
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
	log = append(log, fmt.Sprintf("queued %d", s.QueueLen()))
	return strings.Join(log, "\n")
}

// TestChainMatchesEventHandOff pins Follow against the event-based
// hand-off, one hazard per case.
func TestChainMatchesEventHandOff(t *testing.T) {
	us := sim.Microsecond
	p := platform.IMEC().MCU
	isrEnd := p.WakeupLatency + p.CyclesToTime(300)
	cases := []struct {
		name     string
		queueCap int
		steps    []chainStep
	}{
		{"alone", 0, []chainStep{{0, chainISR, 300}}},
		{"behind queued tasks", 0, []chainStep{
			{0, post, 2000}, {0, post, 500}, {10 * us, chainISR, 300}, {5 * sim.Millisecond, chainISR, 300}}},
		{"behind a full queue", 2, []chainStep{
			{0, post, 2000}, {0, post, 2000}, {10 * us, chainISR, 300}}},
		{"crash before the hand-off", 0, []chainStep{
			{0, chainISR, 3000}, {100 * us, crash, 0}, {2 * sim.Millisecond, chainISR, 300}}},
		{"crash at the hand-off, ahead of its position", 0, []chainStep{
			{0, chainISR, 300}, {isrEnd, crash, 0}, {2 * sim.Millisecond, chainISR, 300}}},
		{"crash while the task runs", 0, []chainStep{
			{0, chainISR, 300}, {110 * us, crash, 0}, {2 * sim.Millisecond, chainISR, 300}}},
		{"interrupt before the hand-off", 0, []chainStep{
			{0, chainISR, 3000}, {100 * us, plainISR, 200}}},
		{"post before the hand-off", 0, []chainStep{
			{0, chainISR, 3000}, {100 * us, post, 200}}},
		{"hand-off into a full queue", 1, []chainStep{
			{0, chainISR, 3000}, {100 * us, post, 200}}},
		{"post into a full queue before the hand-off", 1, []chainStep{
			{0, post, 4000}, {10 * us, chainISR, 3000}, {100 * us, post, 200}}},
		{"chain before an earlier hand-off", 0, []chainStep{
			{0, post, 9000}, {10 * us, chainISR, 300}, {20 * us, chainISR, 300}}},
		{"chained task holds its slot", 1, []chainStep{
			{0, chainISR, 300}, {0, postLater, 200}}},
		{"zero-length interrupt at a completion", 0, []chainStep{
			{0, post, 2000}, {0, chainISR, 0}, {100 * us, chainISR, 0}}},
	}
	for _, kern := range []struct {
		name string
		new  func(int64) *sim.Kernel
	}{{"wheel", sim.NewKernel}, {"heap", sim.NewHeapKernel}} {
		for _, c := range cases {
			want := chainRun(kern.new, c.steps, c.queueCap, false)
			if got := chainRun(kern.new, c.steps, c.queueCap, true); got != want {
				t.Errorf("%s/%s: hand-off run\n%s\nwant the event hand-off's\n%s", kern.name, c.name, got, want)
			}
		}
	}
}

// TestChainElidesHandOffEvent pins the point of Follow: without other
// work in the way, the hand-off costs no kernel event, and with other
// work before it, the hand-off is an event again.
func TestChainElidesHandOffEvent(t *testing.T) {
	events := func(steps []chainStep, chain bool) uint64 {
		k := sim.NewKernel(1)
		m := mcu.New(k, platform.IMEC().MCU, energy.NewLedger())
		s := NewSched(k, m, 0)
		for _, st := range steps {
			st := st
			k.ScheduleAt(st.at, func(*sim.Kernel) {
				if st.op == post {
					s.PostFn("post", st.cycles, nil)
					return
				}
				if chain {
					s.Interrupt("isr", st.cycles, nil)
					s.Follow(Task{Name: "task", Cycles: 500})
				} else {
					s.Interrupt("isr", st.cycles, func() { s.PostFn("task", 500, nil) })
				}
			})
		}
		k.Run()
		return k.Executed()
	}
	clean := []chainStep{{0, chainISR, 300}, {sim.Millisecond, chainISR, 300}}
	if got, want := events(clean, true), events(clean, false)-2; got != want {
		t.Errorf("chained run dispatched %d events, want %d", got, want)
	}
	fallback := []chainStep{{0, chainISR, 3000}, {100 * sim.Microsecond, post, 200}}
	if got, want := events(fallback, true), events(fallback, false); got != want {
		t.Errorf("fallen-back run dispatched %d events, want %d", got, want)
	}
}
