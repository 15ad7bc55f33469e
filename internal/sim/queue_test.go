package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestFIFOMatchesSliceModel drives random push/push-front/pop sequences
// through the ring, across its growth and wrap-around, against a plain
// slice queue.
func TestFIFOMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			q.Push(next)
			model = append(model, next)
			next++
		case op < 5:
			q.PushFront(next)
			model = append([]int{next}, model...)
			next++
		case len(model) > 0:
			if got := q.Peek(); got != model[0] {
				t.Fatalf("step %d: Peek = %d, want %d", step, got, model[0])
			}
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
		if rng.Intn(500) == 0 {
			q.Reset()
			model = model[:0]
		}
	}
}

func TestFIFOGrowKeepsOrderAndClearsDuplicates(t *testing.T) {
	var q FIFO[*int]
	vals := make([]int, 9)
	// Wrap the head past the end of the 4-slot ring, then grow it.
	for i := 0; i < 3; i++ {
		q.Push(&vals[i])
	}
	q.Pop()
	q.Pop()
	for i := 3; i < 9; i++ {
		q.Push(&vals[i])
	}
	for want := 2; want < 9; want++ {
		if got := q.Pop(); got != &vals[want] {
			t.Fatalf("pop %d returned the wrong item", want)
		}
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references a popped item", i)
		}
	}
}

func TestFIFOEmptyPanics(t *testing.T) {
	var q FIFO[int]
	for name, fn := range map[string]func(){"Pop": func() { q.Pop() }, "Peek": func() { q.Peek() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty FIFO did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestArgReportsScheduledWord pins the contract Pending rests on:
// inside a handler, Arg is the word ScheduleArgAt was given, on both
// schedulers, whatever order the events fire in; ScheduleAt gives 0.
func TestArgReportsScheduledWord(t *testing.T) {
	for name, k := range map[string]*Kernel{"wheel": NewKernel(1), "heap": NewHeapKernel(1)} {
		var seen []uint64
		h := func(k *Kernel) { seen = append(seen, k.Arg()) }
		for i := 0; i < 50; i++ {
			k.ScheduleArgAt(Time(49-i)*Microsecond, h, uint64(1000+i))
		}
		k.ScheduleAt(60*Microsecond, h)
		k.Run()
		if len(seen) != 51 {
			t.Fatalf("%s: %d events fired, want 51", name, len(seen))
		}
		for i, arg := range seen[:50] {
			if want := uint64(1049 - i); arg != want {
				t.Fatalf("%s: event %d saw argument %d, want %d", name, i, arg, want)
			}
		}
		if seen[50] != 0 {
			t.Fatalf("%s: a plain event saw argument %d, want 0", name, seen[50])
		}
	}
}

// TestPendingTakesOwnState schedules events of one kind that fire out of
// scheduling order, some at one instant, and checks that each handler
// sees the state it was scheduled with. One handler schedules another
// event of its kind before it calls Take: the kernel has already
// recycled the firing event's pool slot, so the new event may take that
// slot, and the two states must still not mix.
func TestPendingTakesOwnState(t *testing.T) {
	for name, k := range map[string]*Kernel{"wheel": NewKernel(1), "heap": NewHeapKernel(1)} {
		var p Pending[string]
		var got []string
		var h Handler
		h = func(k *Kernel) {
			if k.Now() == 10 && len(got) == 0 {
				p.ScheduleAt(k, 25, h, "nested")
			}
			got = append(got, p.Take(k))
		}
		p.ScheduleAt(k, 30, h, "c")
		p.ScheduleAt(k, 10, h, "a")
		p.ScheduleAt(k, 20, h, "b1")
		p.ScheduleAt(k, 20, h, "b2")
		k.Run()
		want := []string{"a", "b1", "b2", "nested", "c"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: handlers saw %v, want %v", name, got, want)
		}
		// The drained slab serves a second round just as well.
		got = got[:0]
		p.ScheduleAt(k, 50, h, "e")
		p.ScheduleAt(k, 40, h, "d")
		k.Run()
		if fmt.Sprint(got) != "[d e]" {
			t.Fatalf("%s: second round saw %v, want [d e]", name, got)
		}
	}
}

func TestPendingTakeOutsideItsEventPanics(t *testing.T) {
	k := NewKernel(1)
	var p Pending[int]
	k.Schedule(0, func(k *Kernel) {
		defer func() {
			if recover() == nil {
				t.Error("Take from a foreign event did not panic")
			}
		}()
		p.Take(k)
	})
	k.Run()
}

// TestQueuesSteadyStateAllocFree checks that a warmed-up FIFO and Pending
// cycle entries without allocating.
func TestQueuesSteadyStateAllocFree(t *testing.T) {
	var q FIFO[func()]
	fn := func() {}
	for i := 0; i < 8; i++ {
		q.Push(fn)
	}
	q.Reset()
	if n := testing.AllocsPerRun(100, func() {
		q.Push(fn)
		q.Push(fn)
		q.Pop()
		q.Pop()
	}); n != 0 {
		t.Fatalf("FIFO push/pop allocated %v times per run", n)
	}

	k := NewKernel(1)
	var p Pending[uint64]
	var h Handler
	h = func(k *Kernel) { p.Take(k) }
	for i := 0; i < 8; i++ {
		p.Schedule(k, Time(i), h, 0)
	}
	k.Run()
	if n := testing.AllocsPerRun(100, func() {
		p.Schedule(k, Microsecond, h, 1)
		p.Schedule(k, 2*Microsecond, h, 2)
		k.Run()
	}); n != 0 {
		t.Fatalf("Pending schedule/take allocated %v times per run", n)
	}
}
