package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSliceModel drives random push/push-front/pop/pop-back sequences
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
		case op < 6 && len(model) > 0:
			if got, want := q.PopBack(), model[len(model)-1]; got != want {
				t.Fatalf("step %d: PopBack = %d, want %d", step, got, want)
			}
			model = model[:len(model)-1]
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
	for name, fn := range map[string]func(){"Pop": func() { q.Pop() }, "PopBack": func() { q.PopBack() }, "Peek": func() { q.Peek() }} {
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

// TestArgReportsScheduledWord pins the contract every handler that
// carries a crash generation or a tag in its event rests on: inside a
// handler, Arg is the word ScheduleArgAt was given, on both schedulers,
// whatever order the events fire in; ScheduleAt gives 0.
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

// TestQueuesSteadyStateAllocFree checks that a warmed-up FIFO cycles
// entries without allocating.
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
}
