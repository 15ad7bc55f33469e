package sim

import "math/bits"

// The hierarchical timer wheel replaces the original container/heap
// scheduler on the kernel's hot path. Virtual time is quantised into
// buckets of 2^wheelGranularity ns (~4.1 µs); four levels of 256 slots
// each then cover spans of ~1 ms, ~268 ms, ~68 s and ~4.9 h of bucket
// indices, and anything beyond the top level lands in a sorted spill
// slice. Insert and cancel are O(1) for the wheel-resident common case
// (slot boundaries, ack timeouts, sampling ticks), and events live in a
// free-list pool so steady-state scheduling performs no allocation.
//
// Placement uses aligned pages rather than relative deltas: an event
// whose level-L index shares the level-(L+1) page of the cursor goes
// into level L at slot (index >> L*8) & 255. Because every level-L
// resident shares the cursor's level-(L+1) page, a slot can never hold
// events from two different rotations, and every resident's slot is at
// or after the cursor's position within the page — so the occupancy
// bitmap scan that advances the cursor can never step past a pending
// event. Cascading a level-(L+1) bucket first rebases the cursor to
// that bucket's base index and then re-places its events, which by the
// same page argument always land at a lower level (or in ready).
//
// Events extracted from the current level-0 bucket move to the ready
// list, sorted descending by (at, seq) so the next event to fire pops
// from the end. A same-page schedule that lands at or before the cursor
// (for example Schedule(0) from inside a handler) binary-searches into
// ready; since a new event always carries the largest seq so far, FIFO
// order among same-instant events is preserved exactly as the heap
// scheduler ordered them. RunUntil drains the ready tail directly, so a
// TDMA slot boundary with dozens of co-scheduled handlers dispatches in
// one pass without any per-event re-heapification.
const (
	wheelBits        = 8
	wheelSlots       = 1 << wheelBits
	wheelMask        = wheelSlots - 1
	wheelLevels      = 4
	wheelGranularity = 12 // log2 ns per level-0 bucket: ~4.1 µs
)

// Location tags for pooled events. Non-negative locations encode
// level*wheelSlots + slot.
const (
	locFree  int32 = -1
	locReady int32 = -2
	locSpill int32 = -3
)

// poolEvent is one pooled schedule entry. Bucket membership is an
// intrusive doubly-linked list over pool indices so cancellation
// unlinks in O(1). gen is the slot's generation counter: it is bumped
// on every recycle, so an EventID referring to a previous occupant of
// the slot can never cancel the current one.
type poolEvent struct {
	at      Time
	seq     uint64
	handler Handler
	next    int32
	prev    int32
	loc     int32
	gen     uint32
}

// PoolStats reports event-pool accounting for leak tests: every
// allocated slot must eventually be recycled (fired or cancelled), and
// a drained kernel must hold its whole pool on the free list.
type PoolStats struct {
	Allocated uint64 // schedule calls served by the pool
	Recycled  uint64 // slots returned to the free list
	InUse     int    // slots currently out of the free list
	Capacity  int    // backing array length
}

type wheel struct {
	events []poolEvent
	free   int32 // free-list head, -1 when empty
	nfree  int
	allocd uint64
	recycd uint64

	slots [wheelLevels][wheelSlots]int32
	occ   [wheelLevels][wheelSlots / 64]uint64
	cur   int64 // next level-0 bucket index not yet collected

	ready []int32 // descending (at, seq); next to fire at the end
	spill []int32 // ascending (at, seq); beyond the top level's span
	live  int     // scheduled and not yet fired or cancelled
}

func (w *wheel) init() {
	w.free = -1
	for l := range w.slots {
		for s := range w.slots[l] {
			w.slots[l][s] = -1
		}
	}
}

// alloc takes a slot from the free list, growing the pool when empty.
func (w *wheel) alloc() int32 {
	w.allocd++
	if w.free >= 0 {
		idx := w.free
		w.free = w.events[idx].next
		w.nfree--
		return idx
	}
	w.events = append(w.events, poolEvent{gen: 1, next: -1, prev: -1})
	return int32(len(w.events) - 1)
}

// recycle zeroes the slot and returns it to the free list. Zeroing is
// deliberate: the heap scheduler's stale e.index after Pop was a latent
// footgun, and a recycled slot must never leak a handler reference or a
// previous occupant's position into its next life.
func (w *wheel) recycle(idx int32) {
	e := &w.events[idx]
	if e.loc == locFree {
		panic("sim: event pool double recycle")
	}
	e.at = 0
	e.seq = 0
	e.handler = nil
	e.prev = -1
	e.loc = locFree
	e.gen++
	e.next = w.free
	w.free = idx
	w.nfree++
	w.recycd++
}

func (w *wheel) stats() PoolStats {
	return PoolStats{
		Allocated: w.allocd,
		Recycled:  w.recycd,
		InUse:     len(w.events) - w.nfree,
		Capacity:  len(w.events),
	}
}

// before reports whether pool entry a fires before pool entry b under
// the kernel's (at, seq) total order.
func (w *wheel) before(a, b int32) bool {
	ea, eb := &w.events[a], &w.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// schedule files a new event: the insert half of the per-event steady
// state. Pool growth amortises through the sanctioned self-append.
//
//hot:path
func (w *wheel) schedule(at Time, seq uint64, h Handler) EventID {
	idx := w.alloc()
	e := &w.events[idx]
	e.at = at
	e.seq = seq
	e.handler = h
	w.live++
	w.place(idx)
	return EventID(uint64(idx)+1)<<32 | EventID(e.gen)
}

// place files a pool entry into ready, a wheel bucket, or the spill,
// according to its level-0 bucket index relative to the cursor.
func (w *wheel) place(idx int32) {
	i0 := int64(w.events[idx].at) >> wheelGranularity
	if i0 < w.cur {
		w.readyInsert(idx)
		return
	}
	var level int
	switch {
	case i0>>wheelBits == w.cur>>wheelBits:
		level = 0
	case i0>>(2*wheelBits) == w.cur>>(2*wheelBits):
		level = 1
	case i0>>(3*wheelBits) == w.cur>>(3*wheelBits):
		level = 2
	case i0>>(4*wheelBits) == w.cur>>(4*wheelBits):
		level = 3
	default:
		w.spillInsert(idx)
		return
	}
	slot := int32(i0>>(level*wheelBits)) & wheelMask
	w.bucketPush(level, slot, idx)
}

func (w *wheel) bucketPush(level int, slot, idx int32) {
	e := &w.events[idx]
	head := w.slots[level][slot]
	e.next = head
	e.prev = -1
	e.loc = int32(level)*wheelSlots + slot
	if head >= 0 {
		w.events[head].prev = idx
	}
	w.slots[level][slot] = idx
	w.occ[level][slot>>6] |= 1 << (uint(slot) & 63)
}

func (w *wheel) bucketUnlink(idx int32) {
	e := &w.events[idx]
	level, slot := e.loc/wheelSlots, e.loc%wheelSlots
	if e.prev >= 0 {
		w.events[e.prev].next = e.next
	} else {
		w.slots[level][slot] = e.next
	}
	if e.next >= 0 {
		w.events[e.next].prev = e.prev
	}
	if w.slots[level][slot] < 0 {
		w.occ[level][slot>>6] &^= 1 << (uint(slot) & 63)
	}
}

// readyInsert files idx into the descending-sorted ready list.
func (w *wheel) readyInsert(idx int32) {
	lo, hi := 0, len(w.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.before(idx, w.ready[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.ready = append(w.ready, 0)
	copy(w.ready[lo+1:], w.ready[lo:])
	w.ready[lo] = idx
	w.events[idx].loc = locReady
}

// spillInsert files idx into the ascending-sorted spill slice.
func (w *wheel) spillInsert(idx int32) {
	lo, hi := 0, len(w.spill)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.before(w.spill[mid], idx) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.spill = append(w.spill, 0)
	copy(w.spill[lo+1:], w.spill[lo:])
	w.spill[lo] = idx
	w.events[idx].loc = locSpill
}

func (w *wheel) spillRemove(idx int32) {
	lo, hi := 0, len(w.spill)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.before(w.spill[mid], idx) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first position not before idx, i.e. idx itself.
	copy(w.spill[lo:], w.spill[lo+1:])
	w.spill = w.spill[:len(w.spill)-1]
}

// cancel invalidates a pending event. Wheel and spill residents unlink
// and recycle immediately; ready residents become tombstones (handler
// nil) swept when the ready tail is next popped, so cancelling during a
// same-instant batch never disturbs positions behind the tail.
//
//hot:path
func (w *wheel) cancel(id EventID) bool {
	idx := int32(id>>32) - 1
	if idx < 0 || int(idx) >= len(w.events) {
		return false
	}
	e := &w.events[idx]
	if e.gen != uint32(id) || e.loc == locFree || e.handler == nil {
		return false
	}
	w.live--
	switch e.loc {
	case locReady:
		e.handler = nil
	case locSpill:
		w.spillRemove(idx)
		w.recycle(idx)
	default:
		w.bucketUnlink(idx)
		w.recycle(idx)
	}
	return true
}

// nextSet finds the first set bit at or after position from in a
// 256-bit occupancy map.
func nextSet(occ *[wheelSlots / 64]uint64, from int) (int32, bool) {
	word := occ[from>>6] &^ (1<<(uint(from)&63) - 1)
	for i := from >> 6; ; {
		if word != 0 {
			return int32(i<<6 + bits.TrailingZeros64(word)), true
		}
		i++
		if i >= len(occ) {
			return 0, false
		}
		word = occ[i]
	}
}

// collect moves the contents of level-0 bucket slot into ready and
// sorts ready descending. Buckets are small, so an insertion sort beats
// sort.Slice and allocates nothing.
func (w *wheel) collect(slot int32) {
	idx := w.slots[0][slot]
	w.slots[0][slot] = -1
	w.occ[0][slot>>6] &^= 1 << (uint(slot) & 63)
	for idx >= 0 {
		e := &w.events[idx]
		next := e.next
		e.loc = locReady
		e.next = -1
		e.prev = -1
		w.ready = append(w.ready, idx)
		idx = next
	}
	r := w.ready
	for i := 1; i < len(r); i++ {
		x := r[i]
		j := i - 1
		for j >= 0 && w.before(r[j], x) {
			r[j+1] = r[j]
			j--
		}
		r[j+1] = x
	}
}

// cascade re-places every event of the given bucket. The caller must
// already have rebased the cursor to the bucket's base index, so each
// event lands at a lower level (or in ready).
func (w *wheel) cascade(level int, slot int32) {
	idx := w.slots[level][slot]
	w.slots[level][slot] = -1
	w.occ[level][slot>>6] &^= 1 << (uint(slot) & 63)
	for idx >= 0 {
		next := w.events[idx].next
		w.place(idx)
		idx = next
	}
}

// ensureReady guarantees that, when it returns true, the ready tail is
// the earliest live event. It sweeps cancelled tombstones, scans the
// level-0 occupancy within the current page, and otherwise advances the
// cursor by cascading the next occupied outer-level bucket or rebasing
// from the spill.
//
//hot:path
func (w *wheel) ensureReady() bool {
	for {
		for n := len(w.ready); n > 0; n = len(w.ready) {
			idx := w.ready[n-1]
			if w.events[idx].handler != nil {
				return true
			}
			w.ready = w.ready[:n-1]
			w.recycle(idx)
		}
		if w.live == 0 {
			return false
		}
		if s, ok := nextSet(&w.occ[0], int(w.cur)&wheelMask); ok {
			w.cur = w.cur&^int64(wheelMask) | int64(s)
			w.collect(s)
			w.cur++
			if w.cur&wheelMask == 0 {
				w.sync()
			}
			continue
		}
		w.advance()
	}
}

// sync restores the entry invariant after the cursor wraps into a new
// page by natural increment: the outer-level buckets covering the
// cursor's own position must be empty, or events parked there before
// the wrap would sit invisible while fresh inserts keep the inner
// levels busy and carry the cursor past them. Cascading top-down
// redistributes any such bucket strictly below, onto slots at or after
// the cursor. advance's rebases re-establish the invariant on their
// own (the cascaded slot empties and lower positions reset to zero),
// so only the wrap path needs this.
func (w *wheel) sync() {
	for level := wheelLevels - 1; level >= 1; level-- {
		slot := int32(w.cur>>(level*wheelBits)) & wheelMask
		if w.occ[level][slot>>6]&(1<<(uint(slot)&63)) != 0 {
			w.cascade(level, slot)
		}
	}
}

// advance moves the cursor forward when the current level-0 page is
// exhausted: it cascades the next occupied bucket of the innermost
// outer level that has one (scanning from the cursor's position within
// that level; already-drained slots have clear occupancy bits), or
// rebases onto the spill's leading top-level page. Outer-level
// residents are provably later than every inner-level resident, so
// picking the innermost occupied level preserves time order.
func (w *wheel) advance() {
	for level := 1; level < wheelLevels; level++ {
		from := int(w.cur>>(level*wheelBits)) & wheelMask
		if s, ok := nextSet(&w.occ[level], from); ok {
			page := w.cur >> ((level + 1) * wheelBits) << wheelBits
			w.cur = (page | int64(s)) << (level * wheelBits)
			w.cascade(level, s)
			return
		}
	}
	// Spill rebase: jump to the first spilled event's bucket and pull
	// in every spill entry sharing its top-level page. place re-files
	// them into the wheels, never back into the spill.
	first := w.spill[0]
	w.cur = int64(w.events[first].at) >> wheelGranularity
	topPage := w.cur >> (wheelLevels * wheelBits)
	n := 0
	for _, idx := range w.spill {
		if int64(w.events[idx].at)>>wheelGranularity>>(wheelLevels*wheelBits) != topPage {
			break
		}
		n++
	}
	for _, idx := range w.spill[:n] {
		w.place(idx)
	}
	w.spill = w.spill[:copy(w.spill, w.spill[n:])]
}

// popReady removes and recycles the earliest live event, returning its
// handler, instant and ID. The slot is recycled before the handler runs, so
// cancelling the fired ID from inside the handler reports false exactly
// as the heap scheduler did.
//
//hot:path
func (w *wheel) popReady() (Handler, Time, EventID) {
	n := len(w.ready) - 1
	idx := w.ready[n]
	w.ready = w.ready[:n]
	e := &w.events[idx]
	h, at := e.handler, e.at
	id := EventID(uint64(idx)+1)<<32 | EventID(e.gen)
	w.live--
	w.recycle(idx)
	return h, at, id
}

// peekReady reports the instant of the ready tail. Only valid after
// ensureReady returned true.
func (w *wheel) peekReady() Time {
	return w.events[w.ready[len(w.ready)-1]].at
}
