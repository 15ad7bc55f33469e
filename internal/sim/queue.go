package sim

// FIFO is a growable ring-buffer queue. Components keep the per-event
// state of work that completes in submission order in one — the MCU
// serialises computation, so the completions of a component's queued
// tasks and interrupts fire in the order they were posted — and hand
// the executor a handler bound once at construction instead of a
// closure per event. The ring only grows, doubling up to the high-water
// occupancy, so the steady state allocates nothing. The zero value is
// an empty queue.
type FIFO[T any] struct {
	buf  []T // len is a power of two (or zero)
	head int
	n    int
}

// Len reports the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PushFront puts v at the head, ahead of every queued item.
func (q *FIFO[T]) PushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// Pop removes and returns the head item. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop from an empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference for the collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Peek returns the head item without removing it. It panics on an empty
// queue.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek at an empty FIFO")
	}
	return q.buf[q.head]
}

// Reset empties the queue, keeping its storage.
func (q *FIFO[T]) Reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// grow doubles the ring. Appending the ring to itself keeps the queue
// order readable from the unchanged head: the items that had wrapped to
// the front reappear right after the old end, where the doubled ring
// reads them next. The stale duplicates are cleared.
func (q *FIFO[T]) grow() {
	if len(q.buf) == 0 {
		var zero T
		q.buf = append(q.buf, zero, zero, zero, zero)
		return
	}
	old := len(q.buf)
	q.buf = append(q.buf, q.buf...)
	clear(q.buf[:q.head])
	clear(q.buf[q.head+old:])
}

// Pending holds the state of a component's in-flight kernel events of
// one kind: the closure-free counterpart of the variables a per-event
// func literal captures. The component schedules a handler bound once
// at construction through Pending.ScheduleAt, and the handler claims
// its own event's state with Take. Events of one kind may fire in any
// order or fire stale after a crash; each still sees exactly the state
// it was scheduled with. Every event scheduled through p must fire:
// cancelling one through the kernel strands its state.
//
// The state lives in a slab whose slot index rides in the event's
// argument word, so Take is a single index, with no search. The
// event's pool slot cannot serve as the key: the kernel recycles it
// before the handler runs, so a handler that schedules before it calls
// Take could be handed the same slot. Freed slab slots form a free
// list, so the steady state allocates nothing. The zero value is empty.
type Pending[T any] struct {
	slots []pendingSlot[T]
	free  int32 // first free slot + 1; 0 when none is free
}

// pendingSlot is one slab entry: an event's state while it is in
// flight, the next free slot + 1 while it is free.
type pendingSlot[T any] struct {
	v    T
	next int32 // inFlight while the slot holds an event's state
}

// inFlight marks a slot whose event has not yet called Take.
const inFlight = -1

// ScheduleAt schedules h at the absolute instant at and files v as that
// event's state.
//
//hot:path
func (p *Pending[T]) ScheduleAt(k *Kernel, at Time, h Handler, v T) EventID {
	i := p.free - 1
	if i >= 0 {
		p.free = p.slots[i].next
	} else {
		p.slots = append(p.slots, pendingSlot[T]{})
		i = int32(len(p.slots) - 1)
	}
	p.slots[i] = pendingSlot[T]{v: v, next: inFlight}
	return k.ScheduleArgAt(at, h, uint64(i))
}

// Schedule is ScheduleAt after the relative delay d.
func (p *Pending[T]) Schedule(k *Kernel, d Time, h Handler, v T) EventID {
	if d < 0 {
		panic("sim: negative delay")
	}
	return p.ScheduleAt(k, k.Now()+d, h, v)
}

// Take removes and returns the state of the event being dispatched.
// Only the handler of an event scheduled through p may call it, once.
//
//hot:path
func (p *Pending[T]) Take(k *Kernel) T {
	i := k.Arg()
	if i >= uint64(len(p.slots)) || p.slots[i].next != inFlight {
		panic("sim: Pending.Take outside one of its own events")
	}
	s := &p.slots[i]
	v := s.v
	*s = pendingSlot[T]{next: p.free}
	p.free = int32(i) + 1
	return v
}
