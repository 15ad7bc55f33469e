package tinyos

import (
	"testing"

	"repro/internal/sim"
)

// TestCrashFreesQueueSlots is the regression test for a queue-slot leak:
// a crash abandons the tasks in flight (their completions never run), so
// unless the scheduler forgets them too, their slots stay occupied and a
// rebooted node's idle queue accepts fewer tasks than its capacity.
func TestCrashFreesQueueSlots(t *testing.T) {
	k, s := newSched(t, 0)
	m := s.MCU()
	ran := 0
	k.Schedule(0, func(*sim.Kernel) {
		for i := 0; i < 3; i++ {
			if !s.PostFn("in-flight", 100000, func() { ran++ }) {
				t.Fatalf("post %d rejected by an empty queue", i)
			}
		}
	})
	k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		m.Crash()
		s.Crash()
		m.Reboot()
	})
	accepted := 0
	k.Schedule(sim.Second, func(*sim.Kernel) {
		for i := 0; i < DefaultQueueCap; i++ {
			if s.PostFn("after", 100, func() { ran++ }) {
				accepted++
			}
		}
	})
	k.Run()
	if accepted != DefaultQueueCap {
		t.Fatalf("idle queue accepted %d of %d posts after the crash", accepted, DefaultQueueCap)
	}
	if ran != DefaultQueueCap {
		t.Fatalf("%d tasks ran, want the %d posted after the crash", ran, DefaultQueueCap)
	}
	if s.QueueLen() != 0 {
		t.Fatalf("queue holds %d tasks after draining", s.QueueLen())
	}
}

// TestPostFnAllocationFree pins the closure-free task path: posting a
// function value that already exists allocates nothing once the queues
// are warm.
func TestPostFnAllocationFree(t *testing.T) {
	k, s := newSched(t, 0)
	done := func() {}
	for i := 0; i < 4; i++ {
		s.PostFn("warm", 100, done)
	}
	k.Run()
	if n := testing.AllocsPerRun(200, func() {
		s.PostFn("task", 100, done)
		k.Run()
	}); n != 0 {
		t.Fatalf("PostFn allocated %v times per task", n)
	}
}

// TestTimerFiringAllocationFree covers the OS timer's ISR path.
func TestTimerFiringAllocationFree(t *testing.T) {
	k, s := newSched(t, 0)
	tm := NewTimer(s, "tick", func() {})
	tm.StartPeriodic(sim.Millisecond)
	k.RunUntil(10 * sim.Millisecond)
	until := k.Now()
	if n := testing.AllocsPerRun(100, func() {
		until += sim.Millisecond
		k.RunUntil(until)
	}); n != 0 {
		t.Fatalf("a timer firing allocated %v times", n)
	}
}
