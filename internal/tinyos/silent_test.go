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

// A task with no Run costs no completion event: it holds its queue slot
// until dispatch passes its completion position. These tests post the
// same tasks with no Run and with a Run that does nothing, on both
// schedulers, and require the same posts accepted and dropped, the same
// QueueLen at every probe, including probes filed at a task's completion
// instant ahead of and after its position, and the same MCU meter bits.

// silentOp is one scripted action.
type silentOp int

const (
	sPost      silentOp = iota // post a task
	sChain                     // an interrupt that hands a task off
	sInterrupt                 // an interrupt with no task
	sCrash                     // a crash and reboot
	sProbe                     // read QueueLen
)

type silentStep struct {
	at     sim.Time
	op     silentOp
	cycles int64
}

// silentRun plays steps with every task's Run nil when silent is set
// and a no-op otherwise. Each post also files probes at its completion
// instant: one now, so ahead of the task's position, and one from an
// event that runs at that instant after it.
func silentRun(newKernel func(int64) *sim.Kernel, steps []silentStep, queueCap int, silent bool) string {
	k := newKernel(1)
	l := energy.NewLedger()
	m := mcu.New(k, platform.IMEC().MCU, l)
	s := NewSched(k, m, queueCap)
	var log []string
	probe := func(tag string) func(*sim.Kernel) {
		return func(k *sim.Kernel) { log = append(log, fmt.Sprintf("%v %s queue %d", k.Now(), tag, s.QueueLen())) }
	}
	var run func()
	if !silent {
		run = func() {}
	}
	for i, st := range steps {
		i, st := i, st
		k.ScheduleAt(st.at, func(k *sim.Kernel) {
			switch st.op {
			case sPost:
				ok := s.Post(Task{Name: "t", Cycles: st.cycles, Run: run})
				log = append(log, fmt.Sprintf("%v post%d %v", k.Now(), i, ok))
				end := m.Completion().At
				k.ScheduleAt(end, probe(fmt.Sprintf("ahead%d", i)))
				k.ScheduleAt(max(end-1, k.Now()), func(k *sim.Kernel) { k.ScheduleAt(end, probe(fmt.Sprintf("after%d", i))) })
			case sChain:
				s.Interrupt("isr", st.cycles, nil)
				s.Chain(Task{Name: "t", Cycles: 900, Run: run})
			case sInterrupt:
				s.Interrupt("isr", st.cycles, nil)
			case sCrash:
				m.Crash()
				s.Crash()
				m.Reboot()
			case sProbe:
				probe(fmt.Sprintf("probe%d", i))(k)
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

// TestSilentTasksMatchCallbacks pins tasks without a Run against tasks
// with one, one hazard per case.
func TestSilentTasksMatchCallbacks(t *testing.T) {
	us := sim.Microsecond
	cases := []struct {
		name     string
		queueCap int
		steps    []silentStep
	}{
		{"one post", 0, []silentStep{{0, sPost, 2000}, {100 * us, sProbe, 0}, {sim.Millisecond, sProbe, 0}}},
		{"posts into a full queue", 2, []silentStep{
			{0, sPost, 2000}, {0, sPost, 2000}, {10 * us, sPost, 500}, {300 * us, sPost, 500}, {600 * us, sPost, 500}}},
		{"chained tasks", 1, []silentStep{
			{0, sChain, 300}, {10 * us, sPost, 200}, {sim.Millisecond, sChain, 300}, {sim.Millisecond + 60*us, sPost, 200}}},
		{"chain falls back into a full queue", 1, []silentStep{
			{0, sPost, 4000}, {10 * us, sChain, 3000}, {100 * us, sInterrupt, 200}, {200 * us, sProbe, 0}}},
		{"crash with tasks queued", 0, []silentStep{
			{0, sPost, 4000}, {0, sPost, 4000}, {100 * us, sCrash, 0}, {200 * us, sProbe, 0}, {300 * us, sPost, 100}}},
		{"zero-length task", 0, []silentStep{{0, sPost, 2000}, {0, sPost, 0}, {10 * us, sProbe, 0}}},
	}
	for _, kern := range []struct {
		name string
		new  func(int64) *sim.Kernel
	}{{"wheel", sim.NewKernel}, {"heap", sim.NewHeapKernel}} {
		for _, c := range cases {
			want := silentRun(kern.new, c.steps, c.queueCap, false)
			if got := silentRun(kern.new, c.steps, c.queueCap, true); got != want {
				t.Errorf("%s/%s: tasks without a Run\n%s\nwant those with one\n%s", kern.name, c.name, got, want)
			}
		}
	}
}

// TestSilentTaskCostsNoEvent pins the point: a task with no Run and a
// duration costs no kernel event.
func TestSilentTaskCostsNoEvent(t *testing.T) {
	events := func(run func()) uint64 {
		k := sim.NewKernel(1)
		s := NewSched(k, mcu.New(k, platform.IMEC().MCU, energy.NewLedger()), 0)
		k.ScheduleAt(0, func(*sim.Kernel) {
			s.PostFn("t", 500, run)
			s.PostFn("t", 500, run)
		})
		k.Run()
		return k.Executed()
	}
	if got, want := events(nil), events(func() {})-2; got != want {
		t.Errorf("silent tasks dispatched %d events, want %d", got, want)
	}
}
