package sim

import "container/heap"

// heapSched is the original container/heap scheduler, retained behind
// NewHeapKernel as the reference implementation for differential tests
// against the timer wheel. Dispatch order — (at, seq) with seq as the
// FIFO tie-breaker — and cancellation semantics are identical; only the
// data structure differs.
type heapSched struct {
	queue  eventQueue
	nextID EventID
	live   map[EventID]*event
}

func newHeapSched() *heapSched {
	return &heapSched{live: make(map[EventID]*event)}
}

// event is one pending entry in the heap scheduler's queue.
type event struct {
	at      Time
	seq     uint64 // tie-breaker: FIFO among events at the same instant
	id      EventID
	handler Handler
	index   int // heap index, maintained by eventQueue
	dead    bool
}

// eventQueue implements container/heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

func (s *heapSched) schedule(at Time, seq uint64, h Handler) EventID {
	s.nextID++
	//lint:allow hotalloc the legacy reference scheduler allocates per event by design; production runs use the pooled wheel
	e := &event{at: at, seq: seq, id: s.nextID, handler: h}
	heap.Push(&s.queue, e)
	s.live[e.id] = e
	return e.id
}

func (s *heapSched) cancel(id EventID) bool {
	e, ok := s.live[id]
	if !ok {
		return false
	}
	delete(s.live, id)
	e.dead = true
	e.handler = nil
	if e.index >= 0 {
		heap.Remove(&s.queue, e.index)
	}
	return true
}

func (s *heapSched) pending() int { return len(s.live) }

// next pops the earliest live event, skipping cancelled entries.
func (s *heapSched) next() (Handler, Time, EventID, bool) {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*event)
		if e.dead {
			continue
		}
		delete(s.live, e.id)
		h := e.handler
		e.handler = nil
		return h, e.at, e.id, true
	}
	return nil, 0, 0, false
}

// peek reports the instant of the earliest live event.
func (s *heapSched) peek() (Time, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].dead {
			heap.Pop(&s.queue)
			continue
		}
		return s.queue[0].at, true
	}
	return 0, false
}
