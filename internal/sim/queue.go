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
// one kind, filed under the EventID each was scheduled with: the
// closure-free counterpart of the variables a per-event func literal
// captures. The component schedules a handler bound once at
// construction through Pending.ScheduleAt, and the handler claims its
// own event's entry with Take. Events of one kind may fire in any
// order, fire stale after a crash, or be cancelled; each still sees
// exactly the state it was scheduled with. Steady state allocates
// nothing: the backing slices keep their capacity.
type Pending[T any] struct {
	ids  []EventID
	vals []T
}

// ScheduleAt schedules h at the absolute instant at and files v as that
// event's state.
func (p *Pending[T]) ScheduleAt(k *Kernel, at Time, h Handler, v T) EventID {
	id := k.ScheduleAt(at, h)
	p.ids = append(p.ids, id)
	p.vals = append(p.vals, v)
	return id
}

// Schedule is ScheduleAt after the relative delay d.
func (p *Pending[T]) Schedule(k *Kernel, d Time, h Handler, v T) EventID {
	if d < 0 {
		panic("sim: negative delay")
	}
	return p.ScheduleAt(k, k.Now()+d, h, v)
}

// Take removes and returns the state of the event being dispatched.
// Only the handler of an event scheduled through p may call it.
func (p *Pending[T]) Take(k *Kernel) T {
	v, ok := p.remove(k.Firing())
	if !ok {
		panic("sim: Pending.Take outside one of its own events")
	}
	return v
}

// Cancel cancels the event id and drops its state. It reports whether
// the event was still pending.
func (p *Pending[T]) Cancel(k *Kernel, id EventID) bool {
	p.remove(id)
	return k.Cancel(id)
}

func (p *Pending[T]) remove(id EventID) (T, bool) {
	var zero T
	for i, x := range p.ids {
		if x != id {
			continue
		}
		v := p.vals[i]
		last := len(p.ids) - 1
		p.ids = append(p.ids[:i], p.ids[i+1:]...)
		p.vals = append(p.vals[:i], p.vals[i+1:]...)
		p.vals[:last+1][last] = zero // drop the reference for the collector
		return v, true
	}
	return zero, false
}
