package mcu

import "repro/internal/sim"

// HandOffs is an owner's record of its hand-offs: work it submitted to
// the MCU whose completion callback's effects it applied at submission,
// so that the completion costs no kernel event. Each sits at the
// completion position reserved for the work (Completion), settled by
// one sim.Kernel.Passed compare once dispatch passes it; a crash before
// then drops it. A filed hand-off (File) needs no undoing, as its
// effects commute with all other work. An open one (Open) is undone if
// the owner is entered first (Settle), or, once work follows it
// (Follow), if other work is submitted (Yield): the MCU takes back the
// work and the hand-offs behind it, and the owner's Undoer runs the
// callback through an event at the position (Complete,
// sim.Kernel.ScheduleReserved). A record must not move once registered.
type HandOffs struct {
	at      sim.Pos // the open hand-off, the zero Pos when none
	lost    int
	follows bool // work follows it, and it is on the MCU's chain
	m       *MCU
	undo    Undoer
	next    *HandOffs
	filed   sim.FIFO[sim.Pos]
}

// Undoer is an owner's undo record.
type Undoer interface {
	// Undo takes back the effects applied for the hand-off at at. With
	// fallback set it then runs their callback through an event at at;
	// without, the callback does not run: the owner withdrew it, or an
	// earlier hand-off's fallback redoes it.
	Undo(at sim.Pos, fallback bool)
}

// Register makes h a record of hand-offs to m, undone by undo (nil for
// a record that only files).
func (m *MCU) Register(h *HandOffs, undo Undoer) {
	h.m, h.undo = m, undo
	h.next, m.records = m.records, h
}

// Reference makes m elide no completion, the reference elided runs are
// tested against: Open refuses, so owners run their callbacks through
// events at the reserved positions, as their fallbacks do. Filed
// hand-offs have no callback to run. Call it before any work is
// submitted.
func (m *MCU) Reference() { m.reference = true }

// Use gives h's filed hand-offs ring as their first ring (see
// sim.FIFO.Use).
func (h *HandOffs) Use(ring []sim.Pos) { h.filed.Use(ring) }

// File files a hand-off at the completion of the work submitted last,
// which has no completion callback.
//
//hot:path
func (h *HandOffs) File() {
	h.Len()
	h.filed.Push(h.m.done)
}

// Len settles the filed hand-offs dispatch has passed and reports how
// many remain.
//
//hot:path
func (h *HandOffs) Len() int {
	for h.filed.Len() > 0 && h.m.k.Passed(h.filed.Peek()) {
		h.filed.Pop()
	}
	return h.filed.Len()
}

// Open settles h and opens a hand-off at at, the completion of work
// without a callback. It reports false, opening nothing, on a Reference
// MCU or when the work submitted last has no completion position of its
// own; the owner then runs the callback through an event instead.
//
//hot:path
func (h *HandOffs) Open(at sim.Pos) bool {
	m := h.m
	if m.reference || at == m.done && m.shared {
		return false
	}
	h.Settle()
	h.at, m.last = at, h
	return true
}

// Follow queues d of computation, completing with done (nil for none),
// to start at the hand-off opened last, as if its callback had
// submitted it there, and reports true. h joins that hand-off, undone
// without a fallback along with it. Follow reports false, queuing
// nothing, unless that hand-off is open, with no work following it yet,
// where the work submitted last completes.
//
//hot:path
func (h *HandOffs) Follow(d sim.Time, done func()) bool {
	m, o := h.m, h.m.last
	if d < 0 {
		panic("mcu: negative duration")
	}
	if o == nil || o.at.Seq == 0 || o.follows || o.at != m.done || m.shared || m.k.Passed(o.at) {
		return false
	}
	if m.event != 0 {
		panic("mcu: Follow behind work that has a completion callback")
	}
	// The work joins the hand-offs queued so far instead of yielding to
	// them, and so do o and h.
	n := m.nChain
	m.nChain = 0
	m.execFor(d, done)
	o.follows = true
	m.chain[n] = o
	n++
	if !h.follows {
		h.at, h.follows = o.at, true
		m.chain[n] = h
		n++
	}
	m.nChain = n
	return true
}

// Settle runs first at every entry into the owner: it undoes the open
// hand-off, with its fallback, unless dispatch has passed it, and
// reports how many filed hand-offs crashes dropped since the last
// Settle, always the latest filed before each crash.
//
//hot:path
func (h *HandOffs) Settle() int {
	if h.at.Seq|uint64(h.lost) == 0 {
		return 0
	}
	return h.settleAll()
}

func (h *HandOffs) settleAll() int {
	if h.at.Seq != 0 {
		h.settle(true)
	}
	h.Len()
	n := h.lost
	h.lost = 0
	return n
}

// Pending reports whether h holds an open hand-off dispatch has not
// passed.
func (h *HandOffs) Pending() bool { return h.at.Seq != 0 && !h.m.k.Passed(h.at) }

// Withdraw undoes the open hand-off without its fallback unless
// dispatch has passed it, and reports whether it did.
func (h *HandOffs) Withdraw() bool { return h.at.Seq != 0 && h.settle(false) }

func (h *HandOffs) settle(fallback bool) bool {
	if !h.m.k.Passed(h.at) {
		h.m.undo(h, fallback)
		return true
	}
	h.m.prune()
	h.at = sim.Pos{}
	return false
}

// Complete runs done through a completion event of the work submitted
// last, which has no callback: at its reserved position, or, for
// zero-length work without a position of its own, at a fresh one. An
// Undoer's fallback runs its callback so, as the MCU took back the work
// that followed the hand-off.
func (m *MCU) Complete(done func()) {
	if m.shared {
		m.Exec(0, done)
		return
	}
	m.dones.Push(done)
	m.event = m.k.ScheduleReserved(m.done, m.complete, m.gen)
}

// Yield runs before work is submitted: work following a hand-off
// dispatch has not passed would run after it, so that hand-off is
// undone with its fallback.
//
//hot:path
func (m *MCU) Yield() {
	if m.nChain > 0 {
		m.yield()
	}
}

func (m *MCU) yield() {
	m.prune()
	if m.nChain > 0 {
		m.undo(m.chain[0], true)
	}
}

// prune settles the chain's hand-offs dispatch has passed.
func (m *MCU) prune() {
	i := 0
	for ; i < m.nChain && m.k.Passed(m.chain[i].at); i++ {
		m.chain[i].at, m.chain[i].follows = sim.Pos{}, false
	}
	m.nChain = copy(m.chain[:], m.chain[i:m.nChain])
}

// undo undoes h's open hand-off, which dispatch has not passed. If work
// follows it, the hand-offs behind it on the chain are undone first,
// without their fallbacks, and the MCU takes back the work queued
// since, filed hand-offs included: it runs out of work at h's position
// again.
func (m *MCU) undo(h *HandOffs, fallback bool) {
	if fallback {
		sim.ProbeNote("hand-off fallback")
	}
	at := h.at
	if h.follows {
		for {
			m.nChain--
			r := m.chain[m.nChain]
			for r.filed.Len() > 0 {
				if p := r.filed.PopBack(); p.Seq <= at.Seq {
					r.filed.Push(p)
					break
				}
			}
			if r == h {
				break
			}
			r.revert(false)
		}
		if m.event != 0 {
			m.k.Cancel(m.event)
			m.dones.PopBack()
			m.event = 0
		}
		m.idle, m.done, m.shared = at, at, false
		m.meter.Defer(at.At, m.sleep)
	}
	h.revert(fallback)
}

// revert clears h's open hand-off and has its Undoer undo it.
func (h *HandOffs) revert(fallback bool) {
	at := h.at
	h.at, h.follows = sim.Pos{}, false
	h.undo.Undo(at, fallback)
}

// crashed drops h's hand-offs at a crash.
func (h *HandOffs) crashed() {
	h.lost += h.Len()
	h.filed.Reset()
	h.at, h.follows = sim.Pos{}, false
}
