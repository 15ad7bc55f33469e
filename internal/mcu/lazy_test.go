package mcu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// op is one action of an MCU script.
type op int

const (
	opExec     op = iota // Exec(cycles)
	opExecThen           // Exec(cycles), then file the next step at its end instant
	opFlush              // ledger Flush
	opReset              // ledger Reset
	opCrash              // Crash
	opReboot             // Reboot
	opSleep              // SetSleepState(state)
)

// step is one scripted action at an instant. A step filed before the
// run takes a dispatch position ahead of everything the run reserves; a
// step filed by opExecThen lands right after its Exec's reservation.
type step struct {
	at     sim.Time
	op     op
	cycles int64
	state  energy.State
}

// trace is what a script leaves behind: every meter residency, and
// whether the MCU is still busy.
type trace struct {
	residency map[energy.State]sim.Time
	busy      bool
}

// runScript plays steps on a fresh MCU built with params, passing done
// to every Exec, and flushes the ledger at horizon.
func runScript(params platform.MCUParams, steps []step, done func(), horizon sim.Time) trace {
	k := sim.NewKernel(1)
	l := energy.NewLedger()
	m := New(k, params, l)
	var play func(i int) sim.Handler
	play = func(i int) sim.Handler {
		return func(k *sim.Kernel) {
			s := steps[i]
			switch s.op {
			case opExec:
				m.Exec(s.cycles, done)
			case opExecThen:
				end := m.Exec(s.cycles, done)
				if i+1 < len(steps) {
					k.ScheduleAt(end, play(i+1))
				}
			case opFlush:
				l.Flush(k.Now())
			case opReset:
				l.Reset(k.Now())
			case opCrash:
				m.Crash()
			case opReboot:
				m.Reboot()
			case opSleep:
				m.SetSleepState(s.state)
			}
		}
	}
	for i, s := range steps {
		if i > 0 && steps[i-1].op == opExecThen {
			continue // filed by its predecessor
		}
		k.ScheduleAt(s.at, play(i))
	}
	k.RunUntil(horizon)
	l.Flush(k.Now())
	meter := l.Meter(platform.ComponentMCU)
	tr := trace{residency: map[energy.State]sim.Time{}, busy: m.Busy()}
	for _, s := range meter.States() {
		tr.residency[s] = meter.TimeIn(s)
	}
	return tr
}

// diffScript runs steps with a nil done, which schedules no completion
// event, and with a no-op done, whose event takes the position reserved
// for the completion, and fails on any difference: a callback must not
// move the instant the core goes back to sleep.
func diffScript(t *testing.T, name string, params platform.MCUParams, steps []step, horizon sim.Time) trace {
	t.Helper()
	lazy := runScript(params, steps, nil, horizon)
	eager := runScript(params, steps, func() {}, horizon)
	if fmt.Sprint(lazy) != fmt.Sprint(eager) {
		t.Fatalf("%s: nil done left %+v, a no-op done %+v", name, lazy, eager)
	}
	return lazy
}

// TestLazyIdleMatchesCompletionEvents pins the deferred sleep, with and
// without a completion event at the reserved position, one hazard per
// case.
func TestLazyIdleMatchesCompletionEvents(t *testing.T) {
	const us = sim.Microsecond
	p := platform.IMEC().MCU
	ramp := p.WakeupLatency
	work := p.CyclesToTime(800) // 100 µs
	end := ramp + work          // the first Exec's completion instant
	cases := []struct {
		name  string
		steps []step
		// active, when set, is the active residency the case must show.
		active sim.Time
	}{
		{
			// Filed before the run, the second Exec holds a dispatch
			// position ahead of the first one's completion: the core
			// runs straight on, with no second ramp.
			name: "same instant before the reserved position",
			steps: []step{
				{at: 0, op: opExec, cycles: 800},
				{at: end, op: opExec, cycles: 800},
			},
			active: ramp + 2*work,
		},
		{
			// Filed after the first Exec, the second one comes after its
			// completion: the core has gone back to sleep and wakes again.
			name: "same instant after the reserved position",
			steps: []step{
				{at: 0, op: opExecThen, cycles: 800},
				{at: end, op: opExec, cycles: 800},
			},
			active: 2 * (ramp + work),
		},
		{
			// Zero-length work at the end instant, filed ahead of the
			// first completion, ends with it: that completion still
			// puts the core to sleep, so an Exec filed after it wakes
			// the core again.
			name: "zero-cycle exec at the end instant",
			steps: []step{
				{at: 0, op: opExecThen, cycles: 800},
				{at: end, op: opExec, cycles: 1600},
				{at: end, op: opExec, cycles: 0},
			},
			active: (ramp + work) + (ramp + 2*work),
		},
		{
			name: "zero-cycle exec",
			steps: []step{
				{at: 0, op: opExec, cycles: 0},
				{at: ramp, op: opExec, cycles: 0},
				{at: 50 * us, op: opExecThen, cycles: 0},
				{at: 50*us + ramp, op: opExecThen, cycles: 0},
				{at: 50*us + 2*ramp, op: opExec, cycles: 800},
			},
		},
		{
			// A flush at the end instant, ahead of the completion, must
			// not put the core to sleep under the Exec that follows it.
			name: "flush at the end instant before the reserved position",
			steps: []step{
				{at: 0, op: opExec, cycles: 800},
				{at: end, op: opFlush},
				{at: end, op: opExec, cycles: 800},
			},
			active: ramp + 2*work,
		},
		{
			name: "flush and reset inside the deferred idle",
			steps: []step{
				{at: 0, op: opExec, cycles: 800},
				{at: end, op: opFlush},
				{at: 50 * us, op: opFlush},
				{at: 150 * us, op: opFlush},
				{at: 200 * us, op: opExec, cycles: 800},
				{at: 200*us + end, op: opReset},
				{at: 400 * us, op: opReset},
				{at: 400 * us, op: opExec, cycles: 800},
			},
		},
		{
			name: "crash while busy and while idle",
			steps: []step{
				{at: 0, op: opExec, cycles: 8000},
				{at: 500 * us, op: opCrash},
				{at: 700 * us, op: opReboot},
				{at: 800 * us, op: opExec, cycles: 800},
				{at: 800*us + end, op: opCrash},
				{at: 1200 * us, op: opReboot},
				{at: 1300 * us, op: opExec, cycles: 800},
				{at: 1600 * us, op: opCrash},
				{at: 1700 * us, op: opExec, cycles: 800},
			},
		},
		{
			name: "sleep state changes while busy and while idle",
			steps: []step{
				{at: 0, op: opExec, cycles: 8000},
				{at: 300 * us, op: opSleep, state: platform.StateMCULPM3},
				{at: 2 * sim.Millisecond, op: opSleep, state: platform.StateMCULPM1},
				{at: 3 * sim.Millisecond, op: opExecThen, cycles: 800},
				{at: 3*sim.Millisecond + end, op: opSleep, state: platform.StateMCULPM4},
				{at: 4 * sim.Millisecond, op: opExec, cycles: 800},
				{at: 4*sim.Millisecond + end, op: opSleep, state: platform.StateMCULPM2},
			},
		},
	}
	for _, tc := range cases {
		tr := diffScript(t, tc.name, p, tc.steps, 10*sim.Millisecond)
		if tc.active != 0 && tr.residency[platform.StateMCUActive] != tc.active {
			t.Errorf("%s: active residency %v, want %v", tc.name, tr.residency[platform.StateMCUActive], tc.active)
		}
	}
}

// TestLazyIdleAcrossRunUntil checks that a RunUntil ending at the
// instant the work runs out counts the elided completion as dispatched:
// an Exec between runs finds the core asleep, as it would after the
// completion event fired inside the run.
func TestLazyIdleAcrossRunUntil(t *testing.T) {
	for _, done := range []func(){nil, func() {}} {
		k, m, l := newMCU(t)
		var end sim.Time
		k.Schedule(0, func(*sim.Kernel) { end = m.Exec(800, done) })
		k.RunUntil(sim.Microsecond)
		k.RunUntil(end)
		m.Exec(800, done)
		p := m.Params()
		if got, want := activeTime(k, l, sim.Millisecond), 2*(p.WakeupLatency+p.CyclesToTime(800)); got != want {
			t.Fatalf("done=%v: active time %v, want %v (a second wake-up)", done != nil, got, want)
		}
	}
}

// TestLazyIdleRandomScripts replays random scripts, dense in coinciding
// instants, with and without completion events.
func TestLazyIdleRandomScripts(t *testing.T) {
	const us = sim.Microsecond
	// Steps land on a 53 µs grid, and so does every Exec's end: the
	// wake-up ramp is one grid step, and an Exec of 0, 424 or 848
	// cycles lasts 0, 1 or 2 of them.
	p := platform.IMEC().MCU
	p.WakeupLatency = 53 * us
	sleeps := []energy.State{platform.StateMCUPowerSave, platform.StateMCULPM1, platform.StateMCULPM3}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var steps []step
		at := sim.Time(0)
		for i := 0; i < 40; i++ {
			at += sim.Time(rng.Intn(3)) * 53 * us
			s := step{at: at, cycles: int64(rng.Intn(3)) * 424}
			switch r := rng.Intn(20); {
			case r < 8:
				s.op = opExec
			case r < 12:
				s.op = opExecThen
			case r < 14:
				s.op = opFlush
			case r < 15:
				s.op = opReset
			case r < 16:
				s.op = opCrash
			case r < 18:
				s.op = opReboot
			default:
				s.op = opSleep
				s.state = sleeps[rng.Intn(len(sleeps))]
			}
			steps = append(steps, s)
		}
		diffScript(t, fmt.Sprintf("trial %d", trial), p, steps, at+sim.Millisecond)
	}
}
