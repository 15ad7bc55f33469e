package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// opTrace drives one kernel through a pseudo-random schedule / cancel /
// run workload derived from seed and records every observable: fire
// order (tag, instant), Cancel return values, Pending counts and final
// clock. Delays are drawn from a mix that covers same-instant ties,
// µs offsets, ready-page and level-1/2/3 crossings,
// far-future spill entries and in-handler reschedules.
func opTrace(k *Kernel, seed int64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	var ids []EventID
	tag := 0

	delay := func() Time {
		switch rng.Intn(8) {
		case 0:
			return 0 // same-instant tie
		case 1:
			return Time(rng.Intn(4096)) // a few µs
		case 2:
			return Time(rng.Int63n(int64(Millisecond))) // the ready page
		case 3:
			return Time(rng.Int63n(int64(300 * Millisecond))) // levels 1-2
		case 4:
			return Time(rng.Int63n(int64(70 * Second))) // levels 2-3
		case 5:
			return Time(rng.Int63n(int64(5 * 60 * Minute))) // level 3, spill
		case 6:
			return Time(4*60*60*int64(Second)) + Time(rng.Int63n(int64(10*60*Minute))) // spill
		default:
			return Time(rng.Int63n(int64(33 * Millisecond))) // TDMA-ish
		}
	}

	schedule := func() {
		t := tag
		tag++
		reschedules := rng.Intn(3)
		var h Handler
		h = func(kk *Kernel) {
			trace = append(trace, fmt.Sprintf("fire %d @%d", t, kk.Now()))
			if reschedules > 0 {
				reschedules--
				ids = append(ids, kk.Schedule(delay(), h))
			}
		}
		ids = append(ids, k.Schedule(delay(), h))
	}

	// reserved holds positions taken with Reserve whose events are still
	// elided; a later op schedules one there with ScheduleReserved.
	var reserved []Pos
	for i := 0; i < ops; i++ {
		switch rng.Intn(12) {
		case 10:
			reserved = append(reserved, k.Reserve(k.Now()+delay()))
			continue
		case 11:
			if len(reserved) == 0 {
				continue
			}
			j := rng.Intn(len(reserved))
			p := reserved[j]
			reserved = append(reserved[:j], reserved[j+1:]...)
			if k.Passed(p) {
				trace = append(trace, fmt.Sprintf("reserved %d passed", p.Seq))
				continue
			}
			t := tag
			tag++
			ids = append(ids, k.ScheduleReserved(p, func(kk *Kernel) {
				trace = append(trace, fmt.Sprintf("fire reserved %d @%d", t, kk.Now()))
			}, 0))
			continue
		case 0, 1, 2, 3, 4:
			schedule()
		case 5, 6:
			if len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				trace = append(trace, fmt.Sprintf("cancel %v -> %v", id&0xffff, k.Cancel(id)))
			}
		case 7, 8:
			k.RunUntil(k.Now() + delay())
			trace = append(trace, fmt.Sprintf("ran-until @%d pending %d", k.Now(), k.Pending()))
		default:
			trace = append(trace, fmt.Sprintf("pending %d", k.Pending()))
		}
	}
	k.Run()
	trace = append(trace, fmt.Sprintf("done @%d executed %d", k.Now(), k.Executed()))
	return trace
}

// TestWheelMatchesHeapRandomized pins the timer wheel against the
// original heap scheduler (the reference model) on randomized
// workloads: identical fire order, instants, cancel results and
// counters, across ties, generation invalidation, spill overflow and
// events scheduled at reserved sequence numbers.
func TestWheelMatchesHeapRandomized(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		wheelTrace := opTrace(NewKernel(0), seed, 400)
		heapTrace := opTrace(NewHeapKernel(0), seed, 400)
		if len(wheelTrace) != len(heapTrace) {
			t.Fatalf("seed %d: trace lengths differ: wheel %d heap %d",
				seed, len(wheelTrace), len(heapTrace))
		}
		for i := range wheelTrace {
			w, h := wheelTrace[i], heapTrace[i]
			// Cancel lines embed scheduler-specific EventIDs; compare
			// only the reported outcome.
			if w != h && !(sameCancelOutcome(w, h)) {
				t.Fatalf("seed %d: traces diverge at %d:\n  wheel: %s\n  heap:  %s",
					seed, i, w, h)
			}
		}
	}
}

func sameCancelOutcome(a, b string) bool {
	return len(a) > 6 && len(b) > 6 && a[:6] == "cancel" && b[:6] == "cancel" &&
		a[len(a)-5:] == b[len(b)-5:] // "true" / "false" suffix
}

// TestWheelMatchesHeapLongSpan pins the wheel against the heap over
// minutes of virtual time with drifting periodic timers, the pattern
// that exposed the page-entry bug the cursor sync fixes: a timer chain
// can carry the cursor across an outer-level page boundary while an
// earlier event sits parked in that page's outer bucket, and without
// an eager cascade on entry the parked event fires hundreds of
// milliseconds late.
func TestWheelMatchesHeapLongSpan(t *testing.T) {
	long := func(k *Kernel) []string {
		var tr []string
		mk := func(period Time, tag string) {
			var h Handler
			h = func(kk *Kernel) {
				tr = append(tr, fmt.Sprintf("%s@%d", tag, kk.Now()))
				kk.Schedule(period, h)
			}
			k.Schedule(period, h)
		}
		mk(30*Millisecond+17, "a") // ~30 ms cycle with drift
		mk(30*Millisecond-23, "b")
		mk(Time(int64(Second)/205), "s1") // ~205 Hz sampling
		mk(Time(int64(Second)/205)+3, "s2")
		mk(Second+7, "slow")
		k.RunUntil(400 * Second)
		tr = append(tr, fmt.Sprintf("end@%d exec=%d pend=%d", k.Now(), k.Executed(), k.Pending()))
		return tr
	}
	w, h := long(NewKernel(0)), long(NewHeapKernel(0))
	if len(w) != len(h) {
		t.Fatalf("trace lengths differ: wheel %d heap %d", len(w), len(h))
	}
	for i := range w {
		if w[i] != h[i] {
			t.Fatalf("traces diverge at %d: wheel=%s heap=%s", i, w[i], h[i])
		}
	}
}

// TestWheelStaleIDNeverCancels checks generation-counter invalidation:
// once an event has fired or been cancelled, its ID must stay dead even
// after its pool slot is reused by later schedules.
func TestWheelStaleIDNeverCancels(t *testing.T) {
	k := NewKernel(0)
	fired := 0
	id := k.Schedule(10, func(*Kernel) { fired++ })
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// Reuse the slot several times over.
	for i := 0; i < 5; i++ {
		k.Schedule(Time(i+1), func(*Kernel) {})
	}
	if k.Cancel(id) {
		t.Fatal("stale EventID cancelled a recycled slot")
	}
	if got := k.Pending(); got != 5 {
		t.Fatalf("stale cancel disturbed the queue: pending = %d, want 5", got)
	}
	k.Run()
}

// TestScheduleAfterCancelAtHead is the regression test for the heap
// scheduler's stale-index footgun: cancel the head of the queue, then
// immediately schedule again. The pool must hand back a fully zeroed
// slot, and dispatch order must be unaffected.
func TestScheduleAfterCancelAtHead(t *testing.T) {
	for _, mk := range []struct {
		name string
		news func(int64) *Kernel
	}{{"wheel", NewKernel}, {"heap", NewHeapKernel}} {
		t.Run(mk.name, func(t *testing.T) {
			k := mk.news(0)
			var order []string
			head := k.Schedule(5, func(*Kernel) { order = append(order, "head") })
			k.Schedule(10, func(*Kernel) { order = append(order, "b") })
			if !k.Cancel(head) {
				t.Fatal("cancel head failed")
			}
			k.Schedule(7, func(*Kernel) { order = append(order, "a") })
			k.Schedule(10, func(*Kernel) { order = append(order, "c") })
			k.Run()
			want := []string{"a", "b", "c"}
			if len(order) != len(want) {
				t.Fatalf("order = %v, want %v", order, want)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("order = %v, want %v", order, want)
				}
			}
		})
	}
}

// FuzzWheelVsHeap interprets the fuzz input as an op stream and runs it
// against both schedulers, requiring identical observable traces. Seeds
// cover same-instant ties, cancellation, and far-future overflow.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add(int64(1), 50)
	f.Add(int64(7), 200)   // mixes spill entries with cancels
	f.Add(int64(42), 120)  // dense same-instant ties
	f.Add(int64(999), 300) // long run, deep reschedule chains
	f.Fuzz(func(t *testing.T, seed int64, ops int) {
		if ops < 0 || ops > 500 {
			t.Skip()
		}
		wheelTrace := opTrace(NewKernel(0), seed, ops)
		heapTrace := opTrace(NewHeapKernel(0), seed, ops)
		if len(wheelTrace) != len(heapTrace) {
			t.Fatalf("trace lengths differ: wheel %d heap %d", len(wheelTrace), len(heapTrace))
		}
		for i := range wheelTrace {
			if wheelTrace[i] != heapTrace[i] && !sameCancelOutcome(wheelTrace[i], heapTrace[i]) {
				t.Fatalf("traces diverge at %d:\n  wheel: %s\n  heap:  %s",
					i, wheelTrace[i], heapTrace[i])
			}
		}
	})
}
