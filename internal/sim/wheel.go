package sim

import "math/bits"

// The hierarchical timer wheel replaces the original container/heap
// scheduler on the kernel's hot path. Virtual time is quantised into
// pages of 2^pageShift ns (~1 ms). The cursor's page is held in the
// ready list; three outer levels of 256 slots each then cover spans of
// ~268 ms, ~68 s and ~4.9 h of pages, and anything beyond the top level
// lands in a sorted spill slice. Insert and cancel are O(1) for the wheel-resident case
// (slot boundaries, sampling ticks), and events live in a free-list
// pool so steady-state scheduling performs no allocation.
//
// Placement uses aligned pages rather than relative deltas: an event
// whose page shares the cursor's level-(L+1) page but not its level-L
// page goes into level L at slot (page >> (L-1)*8) & 255. Because every
// level-L resident shares the cursor's level-(L+1) page, a slot can
// never hold events from two different rotations, and every resident's
// slot is after the cursor's position within the page — so the
// occupancy bitmap scan that advances the cursor can never step past a
// pending event. Cascading a level-(L+1) bucket first rebases the
// cursor to that bucket's first page and then re-places its events,
// which by the same page argument always land at a lower level (or in
// ready).
//
// The ready list holds every event of the cursor's page and earlier,
// sorted ascending by (at, seq) from its head, so the next event to
// fire pops from the front. Events scheduled into the page — MCU
// completions, radio settles and bursts, Schedule(0) from a handler —
// usually fire after everything queued and append at the end; the rest
// binary-search into place. Since a new event always carries the
// largest seq so far, FIFO order among same-instant events is
// preserved exactly as the heap scheduler ordered them. A TDMA slot
// boundary with dozens of co-scheduled handlers dispatches in one pass
// without any per-event re-heapification.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3  // outer levels, above the ready page
	pageShift   = 20 // log2 ns per page: ~1.05 ms
)

// Location tags for pooled events. Non-negative locations encode
// (level-1)*wheelSlots + slot.
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
	arg     uint64
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

	// slots[l] and occ[l] are outer level l+1.
	slots [wheelLevels][wheelSlots]int32
	occ   [wheelLevels][wheelSlots / 64]uint64
	page  int64 // the cursor: the index of the page ready holds

	ready []int32 // ascending (at, seq) from head; the cursor's page
	head  int     // ready[:head] has fired
	spill []int32 // ascending (at, seq); beyond the top level's span
	live  int     // scheduled and not yet fired or cancelled
}

// initialPool is the event pool's starting capacity: a five-node run
// keeps fewer events pending than this, so its pool never grows.
const initialPool = 32

func (w *wheel) init() {
	w.events = make([]poolEvent, 0, initialPool)
	w.ready = make([]int32, 0, initialPool)
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
	e.arg = 0
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
func (w *wheel) schedule(at Time, seq uint64, h Handler, arg uint64) EventID {
	idx := w.alloc()
	e := &w.events[idx]
	e.at = at
	e.seq = seq
	e.arg = arg
	e.handler = h
	w.live++
	w.place(idx)
	return EventID(uint64(idx)+1)<<32 | EventID(e.gen)
}

// pageOf reports the page pool entry idx falls in.
func (w *wheel) pageOf(idx int32) int64 {
	return int64(w.events[idx].at) >> pageShift
}

// place files a pool entry into ready, an outer-level bucket, or the
// spill, according to its page relative to the cursor.
func (w *wheel) place(idx int32) {
	pg := w.pageOf(idx)
	if pg <= w.page {
		w.readyInsert(idx)
		return
	}
	var level int
	switch {
	case pg>>wheelBits == w.page>>wheelBits:
		level = 1
	case pg>>(2*wheelBits) == w.page>>(2*wheelBits):
		level = 2
	case pg>>(3*wheelBits) == w.page>>(3*wheelBits):
		level = 3
	default:
		w.spillInsert(idx)
		return
	}
	slot := int32(pg>>((level-1)*wheelBits)) & wheelMask
	w.bucketPush(level-1, slot, idx)
}

// bucketPush links idx at the head of outer-level bucket (l, slot),
// where l is the level minus one.
func (w *wheel) bucketPush(l int, slot, idx int32) {
	e := &w.events[idx]
	head := w.slots[l][slot]
	e.next = head
	e.prev = -1
	e.loc = int32(l)*wheelSlots + slot
	if head >= 0 {
		w.events[head].prev = idx
	}
	w.slots[l][slot] = idx
	w.occ[l][slot>>6] |= 1 << (uint(slot) & 63)
}

func (w *wheel) bucketUnlink(idx int32) {
	e := &w.events[idx]
	l, slot := e.loc/wheelSlots, e.loc%wheelSlots
	if e.prev >= 0 {
		w.events[e.prev].next = e.next
	} else {
		w.slots[l][slot] = e.next
	}
	if e.next >= 0 {
		w.events[e.next].prev = e.prev
	}
	if w.slots[l][slot] < 0 {
		w.occ[l][slot>>6] &^= 1 << (uint(slot) & 63)
	}
}

// readySearch returns the position in ready[head:] of the first event
// that does not fire before idx.
func (w *wheel) readySearch(idx int32) int {
	lo, hi := w.head, len(w.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.before(w.ready[mid], idx) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// readyInsert files idx into the ascending-sorted ready list. An event
// that fires after everything queued appends; one that fires before
// everything reuses a fired position when there is one.
func (w *wheel) readyInsert(idx int32) {
	w.events[idx].loc = locReady
	n := len(w.ready)
	if n == w.head || w.before(w.ready[n-1], idx) {
		w.ready = append(w.ready, idx)
		return
	}
	at := w.readySearch(idx)
	if at == w.head && w.head > 0 {
		w.head--
		w.ready[w.head] = idx
		return
	}
	w.ready = append(w.ready, 0)
	copy(w.ready[at+1:], w.ready[at:])
	w.ready[at] = idx
}

// readyRemove takes idx out of the ready list.
func (w *wheel) readyRemove(idx int32) {
	at := w.readySearch(idx) // idx itself: no other event ties its (at, seq)
	w.ready = w.ready[:at+copy(w.ready[at:], w.ready[at+1:])]
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

// cancel removes a pending event from wherever it is filed and
// recycles its slot.
//
//hot:path
func (w *wheel) cancel(id EventID) bool {
	idx := int32(id>>32) - 1
	if idx < 0 || int(idx) >= len(w.events) {
		return false
	}
	e := &w.events[idx]
	if e.gen != uint32(id) || e.loc == locFree {
		return false
	}
	w.live--
	switch e.loc {
	case locReady:
		w.readyRemove(idx)
	case locSpill:
		w.spillRemove(idx)
	default:
		w.bucketUnlink(idx)
	}
	w.recycle(idx)
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

// cascade re-places every event of outer-level bucket (l, slot), l
// being the level minus one, into an empty ready list. The caller must
// already have rebased the cursor to the bucket's first page, so each
// event lands at a lower level or in ready.
//
// bucketPush links newest first, so the walk starts at the bucket's
// tail: events scheduled in order mostly fire in order, so those bound
// for ready append nearly sorted, and one insertion sort files them
// instead of a binary search and a shift per event.
func (w *wheel) cascade(l int, slot int32) {
	idx := w.slots[l][slot]
	w.slots[l][slot] = -1
	w.occ[l][slot>>6] &^= 1 << (uint(slot) & 63)
	for w.events[idx].next >= 0 {
		idx = w.events[idx].next
	}
	for idx >= 0 {
		prev := w.events[idx].prev
		if w.pageOf(idx) <= w.page {
			w.events[idx].loc = locReady
			w.ready = append(w.ready, idx)
		} else {
			w.place(idx)
		}
		idx = prev
	}
	r := w.ready
	for i := 1; i < len(r); i++ {
		x, j := r[i], i
		for ; j > 0 && w.before(x, r[j-1]); j-- {
			r[j] = r[j-1]
		}
		r[j] = x
	}
}

// ensureReady guarantees that, when it returns true, the ready head is
// the earliest live event. It inlines into the dispatch loops; refill
// does the work when the cursor's page has run dry.
//
//hot:path
func (w *wheel) ensureReady() bool {
	return w.head < len(w.ready) || w.refill()
}

// refill advances the cursor, by cascading the next occupied
// outer-level bucket or rebasing from the spill, until ready holds an
// event or none is left.
func (w *wheel) refill() bool {
	for w.head == len(w.ready) {
		w.ready, w.head = w.ready[:0], 0
		if w.live == 0 {
			return false
		}
		w.advance()
	}
	return true
}

// advance moves the cursor forward when its page is exhausted: it
// cascades the next occupied bucket of the innermost level that has one
// (scanning from the cursor's position within that level; drained slots
// have clear occupancy bits), or rebases onto the spill's leading
// top-level page. Outer-level residents are provably later than every
// inner-level resident, so picking the innermost occupied level
// preserves time order. The buckets at the cursor's own positions are
// always empty: placement files the cursor's page in ready, and a
// rebase lands on the first page of the bucket it empties, so no
// resident is ever left behind the cursor.
func (w *wheel) advance() {
	for l := range wheelLevels {
		from := int(w.page>>(l*wheelBits)) & wheelMask
		if s, ok := nextSet(&w.occ[l], from); ok {
			above := w.page >> ((l + 1) * wheelBits) << wheelBits
			w.page = (above | int64(s)) << (l * wheelBits)
			w.cascade(l, s)
			return
		}
	}
	// Spill rebase: jump to the first spilled event's page and pull in
	// every spill entry sharing its top-level page. place re-files them
	// into the wheels, never back into the spill.
	w.page = w.pageOf(w.spill[0])
	top := w.page >> (wheelLevels * wheelBits)
	n := 0
	for _, idx := range w.spill {
		if w.pageOf(idx)>>(wheelLevels*wheelBits) != top {
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
// handler and describing it in f. The slot is recycled before the
// handler runs, so cancelling the fired event's ID from inside the
// handler reports false exactly as the heap scheduler did.
//
//hot:path
func (w *wheel) popReady(f *fired) Handler {
	idx := w.ready[w.head]
	w.head++
	e := &w.events[idx]
	h := e.handler
	*f = fired{at: e.at, seq: e.seq, arg: e.arg}
	w.live--
	w.recycle(idx)
	return h
}

// peekReady reports the instant of the ready head. Only valid after
// ensureReady returned true.
func (w *wheel) peekReady() Time {
	return w.events[w.ready[w.head]].at
}
