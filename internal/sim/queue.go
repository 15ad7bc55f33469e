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

// Use gives a queue that has no ring yet buf, a power of two long, as
// its first ring: a component that knows how deep its queue gets in
// steady state keeps the ring in its own allocation instead of growing
// one. Once the queue has a ring, Use does nothing.
func (q *FIFO[T]) Use(buf []T) {
	if len(q.buf) != 0 {
		return
	}
	if len(buf)&(len(buf)-1) != 0 {
		panic("sim: Use with a ring not a power of two long")
	}
	q.buf = buf
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

// PopBack removes and returns the tail item, the one pushed last. It
// panics on an empty queue.
func (q *FIFO[T]) PopBack() T {
	if q.n == 0 {
		panic("sim: PopBack from an empty FIFO")
	}
	var zero T
	q.n--
	i := (q.head + q.n) & (len(q.buf) - 1)
	v := q.buf[i]
	q.buf[i] = zero
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
