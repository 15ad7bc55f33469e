package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if FromDuration(3*time.Millisecond) != 3*Millisecond {
		t.Fatalf("FromDuration mismatch")
	}
	if (2 * Second).Duration() != 2*time.Second {
		t.Fatalf("Duration mismatch")
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
	if got := (30 * Millisecond).Milliseconds(); got != 30 {
		t.Fatalf("Milliseconds = %v, want 30", got)
	}
	if got := (7 * Microsecond).Micros(); got != 7 {
		t.Fatalf("Micros = %v, want 7", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{2 * Second, "2s"},
		{30 * Millisecond, "30ms"},
		{6 * Microsecond, "6us"},
		{7, "7ns"},
		{1500 * Millisecond, "1500ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30*Millisecond, func(*Kernel) { got = append(got, 3) })
	k.Schedule(10*Millisecond, func(*Kernel) { got = append(got, 1) })
	k.Schedule(20*Millisecond, func(*Kernel) { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", got)
	}
	if k.Now() != 30*Millisecond {
		t.Fatalf("Now = %v, want 30ms", k.Now())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*Millisecond, func(*Kernel) { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestZeroDelayRunsAfterCurrentInstantQueue(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.Schedule(0, func(k *Kernel) {
		got = append(got, "a")
		k.Schedule(0, func(*Kernel) { got = append(got, "c") })
	})
	k.Schedule(0, func(*Kernel) { got = append(got, "b") })
	k.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestScheduleReservedTakesElidedPlace pins Kernel.ScheduleReserved on
// both schedulers: an event scheduled at a reserved sequence number
// dispatches exactly where the elided event sat, after the same-instant
// events scheduled before the reservation and before those scheduled
// after it, whether it is scheduled from outside a handler, from an
// earlier instant's handler, or from a same-instant handler ahead of it.
// A position that has passed, or a number not reserved yet, panics.
func TestScheduleReservedTakesElidedPlace(t *testing.T) {
	for name, k := range map[string]*Kernel{"wheel": NewKernel(1), "heap": NewHeapKernel(1)} {
		var got []string
		note := func(s string) Handler { return func(*Kernel) { got = append(got, s) } }
		at := 5 * Millisecond
		k.ScheduleAt(at, note("before"))
		early := k.Reserve(at)
		k.ScheduleAt(at, note("between"))
		fromHandler := k.Reserve(at)
		var sameInstant Pos
		k.ScheduleAt(at, func(k *Kernel) {
			got = append(got, "trigger")
			k.ScheduleReserved(sameInstant, note("reserved-same-instant"), 0)
			unreserved := k.Reserve(at)
			unreserved.Seq++
			for _, p := range []Pos{early, unreserved} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: ScheduleReserved at seq %d did not panic", name, p.Seq)
						}
					}()
					k.ScheduleReserved(p, note("bad"), 0)
				}()
			}
		})
		k.ScheduleAt(at, note("after"))
		sameInstant = k.Reserve(at)
		k.ScheduleAt(at, note("last"))
		k.ScheduleReserved(early, note("reserved-early"), 0)
		k.ScheduleAt(Millisecond, func(k *Kernel) {
			k.ScheduleReserved(fromHandler, note("reserved-from-handler"), 0)
		})
		k.Run()
		want := "before reserved-early between reserved-from-handler trigger after reserved-same-instant last"
		if g := strings.Join(got, " "); g != want {
			t.Errorf("%s: dispatch order\n got  %s\n want %s", name, g, want)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	id := k.Schedule(Millisecond, func(*Kernel) { fired = true })
	if !k.Cancel(id) {
		t.Fatalf("Cancel reported event not pending")
	}
	if k.Cancel(id) {
		t.Fatalf("second Cancel should report false")
	}
	k.Run()
	if fired {
		t.Fatalf("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	k := NewKernel(1)
	id := k.Schedule(Millisecond, func(*Kernel) {})
	k.Run()
	if k.Cancel(id) {
		t.Fatalf("Cancel after fire should report false")
	}
}

func TestRunUntilAdvancesToHorizon(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Schedule(10*Millisecond, func(*Kernel) { count++ })
	k.Schedule(90*Millisecond, func(*Kernel) { count++ })
	k.RunUntil(50 * Millisecond)
	if count != 1 {
		t.Fatalf("events executed = %d, want 1", count)
	}
	if k.Now() != 50*Millisecond {
		t.Fatalf("Now = %v, want horizon 50ms", k.Now())
	}
	// The remaining event still fires on a later RunUntil.
	k.RunUntil(100 * Millisecond)
	if count != 2 {
		t.Fatalf("events executed = %d, want 2", count)
	}
}

func TestRunUntilEventAtHorizonFires(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(50*Millisecond, func(*Kernel) { fired = true })
	k.RunUntil(50 * Millisecond)
	if !fired {
		t.Fatalf("event exactly at horizon should fire")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Schedule(Millisecond, func(k *Kernel) { count++; k.Stop() })
	k.Schedule(2*Millisecond, func(*Kernel) { count++ })
	k.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt the run (count=%d)", count)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10*Millisecond, func(k *Kernel) {
		defer func() {
			if recover() == nil {
				t.Errorf("scheduling in the past did not panic")
			}
		}()
		k.ScheduleAt(5*Millisecond, func(*Kernel) {})
	})
	k.Run()
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("nil handler did not panic")
		}
	}()
	NewKernel(1).Schedule(0, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative delay did not panic")
		}
	}()
	NewKernel(1).Schedule(-1, func(*Kernel) {})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		k := NewKernel(seed)
		var trace []int64
		var recurse func(depth int) Handler
		recurse = func(depth int) Handler {
			return func(k *Kernel) {
				trace = append(trace, int64(k.Now()))
				if depth < 50 {
					d := Time(k.Rand().Intn(1000)+1) * Microsecond
					k.Schedule(d, recurse(depth+1))
				}
			}
		}
		k.Schedule(Millisecond, recurse(0))
		k.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical stochastic traces")
	}
}

// Property: for any batch of scheduled delays, execution order is the
// non-decreasing sort of the delays, and equal delays preserve submission
// order.
func TestQuickEventOrderIsSorted(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(7)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			at := Time(d) * Microsecond
			i := i
			k.ScheduleAt(at, func(k *Kernel) {
				fired = append(fired, rec{k.Now(), i})
			})
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		ok := sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement
// to fire.
func TestQuickCancelSubset(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%64) + 1
		k := NewKernel(3)
		fired := make([]bool, count)
		ids := make([]EventID, count)
		for i := 0; i < count; i++ {
			i := i
			ids[i] = k.Schedule(Time(i+1)*Microsecond, func(*Kernel) { fired[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				k.Cancel(ids[i])
			}
		}
		k.Run()
		for i := 0; i < count; i++ {
			cancelled := mask&(1<<uint(i)) != 0
			if fired[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutedCounter(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 25; i++ {
		k.Schedule(Time(i)*Microsecond, func(*Kernel) {})
	}
	k.Run()
	if k.Executed() != 25 {
		t.Fatalf("Executed = %d, want 25", k.Executed())
	}
}

func TestRandStreamIsSeedDeterministic(t *testing.T) {
	a := NewKernel(99).Rand()
	b := NewKernel(99).Rand()
	for i := 0; i < 32; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same seed produced different random streams")
		}
	}
	_ = rand.Int // keep math/rand imported for clarity of intent
}

func TestTimerOneShot(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	tm := NewTimer(k, func(k *Kernel) { fired = append(fired, k.Now()) })
	tm.StartOneShot(5 * Millisecond)
	if !tm.Running() {
		t.Fatalf("timer should be running after StartOneShot")
	}
	k.Run()
	if len(fired) != 1 || fired[0] != 5*Millisecond {
		t.Fatalf("fired = %v, want [5ms]", fired)
	}
	if tm.Running() {
		t.Fatalf("one-shot timer still running after fire")
	}
}

func TestTimerPeriodic(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	tm := NewTimer(k, func(k *Kernel) { fired = append(fired, k.Now()) })
	tm.StartPeriodic(10 * Millisecond)
	k.RunUntil(35 * Millisecond)
	if len(fired) != 3 {
		t.Fatalf("periodic fired %d times, want 3 (%v)", len(fired), fired)
	}
	for i, at := range fired {
		if want := Time(i+1) * 10 * Millisecond; at != want {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
	tm.Stop()
	before := len(fired)
	k.RunUntil(100 * Millisecond)
	if len(fired) != before {
		t.Fatalf("stopped timer kept firing")
	}
}

func TestTimerPeriodicAt(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	tm := NewTimer(k, func(k *Kernel) { fired = append(fired, k.Now()) })
	tm.StartPeriodicAt(3*Millisecond, 10*Millisecond)
	k.RunUntil(25 * Millisecond)
	want := []Time{3 * Millisecond, 13 * Millisecond, 23 * Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestTimerRestartCancelsPrevious(t *testing.T) {
	k := NewKernel(1)
	count := 0
	tm := NewTimer(k, func(*Kernel) { count++ })
	tm.StartOneShot(5 * Millisecond)
	tm.StartOneShot(8 * Millisecond) // replaces the 5ms shot
	k.Run()
	if count != 1 {
		t.Fatalf("restart did not cancel previous schedule (count=%d)", count)
	}
	if k.Now() != 8*Millisecond {
		t.Fatalf("Now = %v, want 8ms", k.Now())
	}
}

func TestTimerStopIdempotent(t *testing.T) {
	k := NewKernel(1)
	tm := NewTimer(k, func(*Kernel) {})
	tm.Stop()
	tm.Stop()
	tm.StartOneShot(Millisecond)
	tm.Stop()
	tm.Stop()
	k.Run()
	if k.Executed() != 0 {
		t.Fatalf("stopped timer executed events")
	}
}
