package mcu

import (
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
	k, m, _ := newMCU(t)
	k.Schedule(0, func(*sim.Kernel) {
		m.Exec(800, nil) // wakes: 100us + 6us
		m.Exec(800, nil) // back-to-back: no second ramp
	})
	k.Run()
	want := 200*sim.Microsecond + 6*sim.Microsecond
	if m.ActiveTime() != want {
		t.Fatalf("active time = %v, want %v", m.ActiveTime(), want)
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
	k, m, _ := newMCU(t)
	k.Schedule(0, func(*sim.Kernel) {
		m.Exec(800, func() { m.Exec(800, nil) })
	})
	k.Run()
	// Chained exec continues without a second wakeup ramp.
	want := 200*sim.Microsecond + 6*sim.Microsecond
	if m.ActiveTime() != want {
		t.Fatalf("active time = %v, want %v", m.ActiveTime(), want)
	}
}

func TestExecDur(t *testing.T) {
	k, m, _ := newMCU(t)
	k.Schedule(0, func(*sim.Kernel) { m.ExecDur(3840*sim.Microsecond, nil) })
	k.Run()
	want := 3840*sim.Microsecond + 6*sim.Microsecond
	if m.ActiveTime() != want {
		t.Fatalf("active = %v, want %v (FIFO clock-in + wake)", m.ActiveTime(), want)
	}
	if m.CyclesRun() != int64(3840*8) { // 3840us at 8MHz
		t.Fatalf("cycles = %d, want %d", m.CyclesRun(), 3840*8)
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
	k.Schedule(0, func(*sim.Kernel) {
		m.Exec(80000, nil)
		if !m.Busy() {
			t.Errorf("MCU not busy right after Exec")
		}
	})
	k.Run()
	if m.Execs() != 1 {
		t.Fatalf("Execs = %d", m.Execs())
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
		at := sim.Time(0)
		for _, b := range bursts {
			at += sim.Time(b%1000+1) * sim.Microsecond
			cycles := int64(b%5000 + 1)
			k.ScheduleAt(at, func(*sim.Kernel) { m.Exec(cycles, nil) })
		}
		horizon := at + sim.Second
		k.RunUntil(horizon)
		l.Flush(k.Now())
		meter := l.Meter(platform.ComponentMCU)
		active := meter.TimeIn(platform.StateMCUActive)
		save := meter.TimeIn(platform.StateMCUPowerSave)
		if active != m.ActiveTime() {
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
// work with a done that already exists allocates nothing once warm.
func TestExecAllocationFree(t *testing.T) {
	k, m, _ := newMCU(t)
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
