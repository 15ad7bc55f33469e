package tinyos

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/platform"
	"repro/internal/sim"
)

func newSched(t *testing.T, queueCap int) (*sim.Kernel, *Sched) {
	t.Helper()
	k := sim.NewKernel(1)
	l := energy.NewLedger()
	m := mcu.New(k, platform.IMEC().MCU, l)
	return k, NewSched(k, m, queueCap)
}

func TestPostRunsFIFO(t *testing.T) {
	k, s := newSched(t, 0)
	var order []int
	k.Schedule(0, func(*sim.Kernel) {
		for i := 1; i <= 3; i++ {
			i := i
			if !s.PostFn("t", 100, func() { order = append(order, i) }) {
				t.Errorf("post %d rejected", i)
			}
		}
	})
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	k, s := newSched(t, 2)
	ran := 0
	dropped := 0
	k.Schedule(0, func(*sim.Kernel) {
		for i := 0; i < 5; i++ {
			if !s.PostFn("t", 1000, func() { ran++ }) {
				dropped++
			}
		}
	})
	k.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 (queue cap)", ran)
	}
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
}

func TestQueueDrainsAndRefills(t *testing.T) {
	k, s := newSched(t, 1)
	ran := 0
	k.Schedule(0, func(*sim.Kernel) { s.PostFn("a", 100, func() { ran++ }) })
	k.Schedule(sim.Millisecond, func(*sim.Kernel) { s.PostFn("b", 100, func() { ran++ }) })
	k.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 after drain", ran)
	}
}

func TestInterruptBypassesQueueCap(t *testing.T) {
	k, s := newSched(t, 1)
	ran := 0
	k.Schedule(0, func(*sim.Kernel) {
		s.PostFn("task", 100000, nil) // fills the queue
		for i := 0; i < 3; i++ {
			s.Interrupt("isr", 100, func() { ran++ })
		}
	})
	k.Run()
	if ran != 3 {
		t.Fatalf("interrupts ran = %d, want 3", ran)
	}
}

func TestNegativeCyclesPanic(t *testing.T) {
	_, s := newSched(t, 0)
	for _, fn := range []func(){
		func() { s.Post(Task{Name: "bad", Cycles: -1}) },
		func() { s.Interrupt("bad", -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("negative cycles did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMCUAccessor(t *testing.T) {
	_, s := newSched(t, 0)
	if s.MCU() == nil {
		t.Fatalf("MCU() returned nil")
	}
}

func TestBusyLoadOccupiesMCU(t *testing.T) {
	k, s := newSched(t, 0)
	var doneAt sim.Time
	k.Schedule(0, func(*sim.Kernel) {
		s.BusyLoad("fifo", 3840*sim.Microsecond, func() { doneAt = k.Now() })
	})
	k.Run()
	want := 3840*sim.Microsecond + 6*sim.Microsecond // + wakeup
	if doneAt != want {
		t.Fatalf("BusyLoad done at %v, want %v", doneAt, want)
	}
}

func TestPowerPolicyTable(t *testing.T) {
	cases := []struct {
		gap  sim.Time
		want energy.State
	}{
		{sim.Millisecond, platform.StateMCUPowerSave},
		{4 * sim.Millisecond, platform.StateMCUPowerSave},
		{10 * sim.Millisecond, platform.StateMCULPM2},
		{100 * sim.Millisecond, platform.StateMCULPM3},
		{2 * sim.Second, platform.StateMCULPM4},
	}
	for _, c := range cases {
		if got := PowerPolicy(c.gap); got != c.want {
			t.Errorf("PowerPolicy(%v) = %v, want %v", c.gap, got, c.want)
		}
	}
}

func TestPaperWorkloadsUseFirstPowerSaveMode(t *testing.T) {
	// The paper: inter-event gaps of its applications are a few ms, so
	// the scheduler only ever selects the first low-power mode. The
	// densest workload is 205 Hz sampling (4.9 ms gaps).
	gap := sim.Second / 205
	if got := PowerPolicy(gap); got != platform.StateMCUPowerSave {
		t.Fatalf("policy for 205Hz gap = %v, want power-save", got)
	}
}
