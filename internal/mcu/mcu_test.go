package mcu

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

func newMCU(t *testing.T) (*sim.Kernel, *MCU, *energy.Ledger) {
	t.Helper()
	k := sim.NewKernel(1)
	l := energy.NewLedger()
	m := New(k, platform.IMEC().MCU, l)
	return k, m, l
}

// activeTime runs k to horizon and reports the MCU meter's active
// residency.
func activeTime(k *sim.Kernel, l *energy.Ledger, horizon sim.Time) sim.Time {
	k.RunUntil(horizon)
	l.Flush(k.Now())
	return l.Meter(platform.ComponentMCU).TimeIn(platform.StateMCUActive)
}

func TestExecTiming(t *testing.T) {
	k, m, _ := newMCU(t)
	var doneAt sim.Time
	k.Schedule(0, func(*sim.Kernel) {
		// 8000 cycles at 8 MHz = 1 ms, plus the 6 µs wakeup ramp.
		m.Exec(8000, func() { doneAt = k.Now() })
	})
	k.Run()
	want := sim.Millisecond + 6*sim.Microsecond
	if doneAt != want {
		t.Fatalf("completion at %v, want %v", doneAt, want)
	}
}

func TestExecSerializes(t *testing.T) {
	k, m, _ := newMCU(t)
	var order []int
	k.Schedule(0, func(*sim.Kernel) {
		m.Exec(8000, func() { order = append(order, 1) })
		m.Exec(8000, func() { order = append(order, 2) })
	})
	k.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	// Second task queues behind the first: total = wake + 2ms.
	want := 2*sim.Millisecond + 6*sim.Microsecond
	if k.Now() != want {
		t.Fatalf("end = %v, want %v", k.Now(), want)
	}
}

func TestWakeupChargedOncePerSleepExit(t *testing.T) {
	k, m, l := newMCU(t)
	k.Schedule(0, func(*sim.Kernel) {
		m.Exec(800, nil) // wakes: 100us + 6us
		m.Exec(800, nil) // back-to-back: no second ramp
	})
	want := 200*sim.Microsecond + 6*sim.Microsecond
	if got := activeTime(k, l, sim.Millisecond); got != want {
		t.Fatalf("active time = %v, want %v", got, want)
	}
}

func TestSleepsAfterQueueDrains(t *testing.T) {
	k, m, l := newMCU(t)
	k.Schedule(0, func(*sim.Kernel) { m.Exec(8000, nil) })
	k.RunUntil(10 * sim.Millisecond)
	l.Flush(k.Now())
	meter := l.Meter(platform.ComponentMCU)
	active := meter.TimeIn(platform.StateMCUActive)
	saved := meter.TimeIn(platform.StateMCUPowerSave)
	wantActive := sim.Millisecond + 6*sim.Microsecond
	if active != wantActive {
		t.Fatalf("active residency = %v, want %v", active, wantActive)
	}
	if active+saved != 10*sim.Millisecond {
		t.Fatalf("residencies do not cover the window: %v + %v", active, saved)
	}
	if m.Busy() {
		t.Fatalf("MCU still busy after drain")
	}
}

func TestDoneCallbackCanChainWithoutSleep(t *testing.T) {
	k, m, l := newMCU(t)
	k.Schedule(0, func(*sim.Kernel) {
		m.Exec(800, func() { m.Exec(800, nil) })
	})
	// Chained exec continues without a second wakeup ramp.
	want := 200*sim.Microsecond + 6*sim.Microsecond
	if got := activeTime(k, l, sim.Millisecond); got != want {
		t.Fatalf("active time = %v, want %v", got, want)
	}
}

func TestExecDur(t *testing.T) {
	k, m, l := newMCU(t)
	var end sim.Time
	k.Schedule(0, func(*sim.Kernel) { end = m.ExecDur(3840*sim.Microsecond, nil) })
	want := 3840*sim.Microsecond + 6*sim.Microsecond
	if got := activeTime(k, l, 10*sim.Millisecond); got != want || end != want {
		t.Fatalf("active = %v, ends at %v, want %v (FIFO clock-in + wake)", got, end, want)
	}
}

func TestExecDurNegativePanics(t *testing.T) {
	k, m, _ := newMCU(t)
	defer func() {
		if recover() == nil {
			t.Fatalf("negative duration did not panic")
		}
	}()
	_ = k
	m.ExecDur(-1, nil)
}

func TestPowerSaveEnergyBaseline(t *testing.T) {
	// An idle MCU for 60 s must integrate the paper's 110.88 mJ floor.
	k, _, l := newMCU(t)
	k.RunUntil(60 * sim.Second)
	l.Flush(k.Now())
	got := l.Meter(platform.ComponentMCU).EnergyJ() * 1e3
	if math.Abs(got-110.88) > 0.01 {
		t.Fatalf("idle 60s = %.3f mJ, want 110.88", got)
	}
}

func TestSetSleepState(t *testing.T) {
	k, m, l := newMCU(t)
	m.SetSleepState(platform.StateMCULPM3)
	k.RunUntil(10 * sim.Second)
	l.Flush(k.Now())
	meter := l.Meter(platform.ComponentMCU)
	if meter.TimeIn(platform.StateMCULPM3) != 10*sim.Second {
		t.Fatalf("LPM3 residency = %v", meter.TimeIn(platform.StateMCULPM3))
	}
	// Deep mode draws far less than power-save.
	if meter.EnergyJ() >= 10*platform.IMEC().MCU.PowerSaveA*2.8 {
		t.Fatalf("LPM3 energy not below power-save: %v", meter.EnergyJ())
	}
}

func TestSetSleepStateRejectsActive(t *testing.T) {
	_, m, _ := newMCU(t)
	defer func() {
		if recover() == nil {
			t.Fatalf("active as sleep state did not panic")
		}
	}()
	m.SetSleepState(platform.StateMCUActive)
}

func TestExecsAndBusy(t *testing.T) {
	k, m, _ := newMCU(t)
	var end sim.Time
	k.Schedule(0, func(*sim.Kernel) {
		end = m.Exec(80000, nil)
		if !m.Busy() {
			t.Errorf("MCU not busy right after Exec")
		}
		if c := m.Completion(); c.At != end || k.Passed(c) {
			t.Errorf("completion %+v, want a position at %v not passed yet", c, end)
		}
	})
	k.RunUntil(20 * sim.Millisecond)
	if m.Busy() || !k.Passed(m.Completion()) {
		t.Fatalf("at %v the work has not completed", k.Now())
	}
}

// Property: for any workload pattern, total energy equals
// active·P_active + save·P_save with active+save == elapsed.
func TestQuickEnergyDecomposition(t *testing.T) {
	p := platform.IMEC().MCU
	f := func(bursts []uint16) bool {
		k := sim.NewKernel(2)
		l := energy.NewLedger()
		m := New(k, p, l)
		// busy sums the MCU's busy periods from the completion instants:
		// a period runs from an Exec that finds the MCU idle to the end
		// of the last Exec queued before it drains.
		var busy, start, end sim.Time
		at := sim.Time(0)
		for _, b := range bursts {
			at += sim.Time(b%1000+1) * sim.Microsecond
			cycles := int64(b%5000 + 1)
			k.ScheduleAt(at, func(k *sim.Kernel) {
				if k.Now() > end {
					busy += end - start
					start = k.Now()
				}
				end = m.Exec(cycles, nil)
			})
		}
		horizon := at + sim.Second
		k.RunUntil(horizon)
		busy += end - start
		l.Flush(k.Now())
		meter := l.Meter(platform.ComponentMCU)
		active := meter.TimeIn(platform.StateMCUActive)
		save := meter.TimeIn(platform.StateMCUPowerSave)
		if active != busy {
			return false
		}
		if active+save < horizon { // queue may run past horizon; never less
			return false
		}
		wantE := p.ActiveA*p.VoltageV*active.Seconds() + p.PowerSaveA*p.VoltageV*save.Seconds()
		return math.Abs(meter.EnergyJ()-wantE) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: execution never overlaps — completion times are strictly
// increasing and separated by at least each task's duration.
func TestQuickSerialization(t *testing.T) {
	p := platform.IMEC().MCU
	f := func(tasks []uint16) bool {
		if len(tasks) == 0 {
			return true
		}
		k := sim.NewKernel(3)
		l := energy.NewLedger()
		m := New(k, p, l)
		var ends []sim.Time
		var durs []sim.Time
		k.Schedule(0, func(*sim.Kernel) {
			for _, c := range tasks {
				cycles := int64(c%10000 + 1)
				durs = append(durs, p.CyclesToTime(cycles))
				m.Exec(cycles, func() { ends = append(ends, k.Now()) })
			}
		})
		k.Run()
		if len(ends) != len(tasks) {
			return false
		}
		prev := sim.Time(0)
		for i, e := range ends {
			if e < prev+durs[i] {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestExecAllocationFree pins the closure-free completion path: queuing
// work with a done that already exists, or with none (the deferred
// sleep), allocates nothing once warm.
func TestExecAllocationFree(t *testing.T) {
	k, m, l := newMCU(t)
	done := func() {}
	for i := 0; i < 4; i++ {
		m.Exec(100, done)
	}
	k.Run()
	if n := testing.AllocsPerRun(200, func() {
		m.Exec(100, done)
		k.Run()
	}); n != 0 {
		t.Fatalf("Exec allocated %v times per computation", n)
	}
	horizon := k.Now()
	if n := testing.AllocsPerRun(200, func() {
		m.Exec(100, nil)
		m.Exec(100, nil)
		horizon += sim.Millisecond
		k.RunUntil(horizon)
		l.Flush(horizon)
	}); n != 0 {
		t.Fatalf("Exec with a nil done allocated %v times per computation", n)
	}
}

// TestCrashAbandonsQueuedCallbacks crashes the MCU with one computation
// running and one queued, then submits new work whose completions
// interleave with the abandoned ones' stale events: one stale event
// dispatches between the first two new completions and one between the
// last two. Each computation has its own callback, so the test sees
// whether a callback ran, and whether it ran at its own completion
// instant, on both schedulers.
func TestCrashAbandonsQueuedCallbacks(t *testing.T) {
	for name, k := range map[string]*sim.Kernel{"wheel": sim.NewKernel(1), "heap": sim.NewHeapKernel(1)} {
		m := New(k, platform.IMEC().MCU, energy.NewLedger())
		var got []string
		ends := map[string]sim.Time{}
		submit := func(id string, cycles int64) {
			ends[id] = m.Exec(cycles, func() {
				if k.Now() != ends[id] {
					t.Errorf("%s: %s completed at %v, want %v", name, id, k.Now(), ends[id])
				}
				got = append(got, id)
			})
		}
		k.Schedule(0, func(*sim.Kernel) {
			submit("a", 8000)  // 1 ms: completes before the crash
			submit("b", 80000) // 10 ms: running at the crash
			submit("c", 8000)  // queued behind b
		})
		k.Schedule(2*sim.Millisecond, func(*sim.Kernel) {
			m.Crash()
			m.Reboot()
			submit("d", 800)   // ends before b's stale completion
			submit("e", 72000) // ends between b's and c's
			submit("f", 16000) // ends after c's
		})
		k.Run()
		if want := "[a d e f]"; fmt.Sprint(got) != want {
			t.Fatalf("%s: callbacks ran %v, want %s", name, got, want)
		}
		if !(ends["d"] < ends["b"] && ends["b"] < ends["e"] && ends["e"] < ends["c"] && ends["c"] < ends["f"]) {
			t.Fatalf("%s: completions do not interleave: %v", name, ends)
		}
	}
}

// TestQueueSkipsAbandoned checks that state queued for computations a
// crash abandoned never reaches a later computation's callback.
func TestQueueSkipsAbandoned(t *testing.T) {
	k, m, _ := newMCU(t)
	q := NewQueue[int](m)
	var got []int
	done := func() { got = append(got, q.Pop()) }
	submit := func(v int) {
		q.Push(v)
		m.Exec(800, done)
	}
	k.Schedule(0, func(*sim.Kernel) {
		submit(1)
		submit(2)
	})
	k.Schedule(150*sim.Microsecond, func(*sim.Kernel) { // 1 done, 2 running
		m.Crash()
		m.Reboot()
		submit(3)
		submit(4)
	})
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("callbacks popped %v, want [1 3 4]", got)
	}
	if q.Len() != 0 {
		t.Fatalf("%d entries left", q.Len())
	}
	q.Push(5)
	m.Crash()
	q.DropAbandoned()
	if q.Len() != 0 {
		t.Fatalf("DropAbandoned left %d entries after a crash", q.Len())
	}
}

// TestPlacedQueueKeepsItsRing checks a Placed queue: its first two
// entries need no allocation, it grows past them like any queue, and
// PopBack takes back the entry pushed last.
func TestPlacedQueueKeepsItsRing(t *testing.T) {
	_, m, _ := newMCU(t)
	q := NewQueue[int](m)
	q.Placed()
	if n := testing.AllocsPerRun(100, func() {
		q.Push(1)
		q.Push(2)
		q.Pop()
		q.Pop()
	}); n != 0 {
		t.Fatalf("a Placed queue allocated %v times for two entries", n)
	}
	for v := range 5 {
		q.Push(v)
	}
	if v := q.PopBack(); v != 4 || q.Len() != 4 || q.Pop() != 0 {
		t.Fatalf("PopBack gave %d, leaving %d entries; want 4, leaving 4 from 0", v, q.Len())
	}
}
