// Fixture for the eventgen analyzer: callbacks capturing a crash-aware
// component (struct with a gen field) must recheck the generation.
package a

import "sim"

// nodeMac is crash-aware: it carries the gen counter bumped on every
// crash/reboot.
type nodeMac struct {
	k     *sim.Kernel
	gen   uint64
	armed bool
}

// armUnchecked captures m but never consults the generation: a reboot
// leaves this event live and it resurrects pre-crash state. Flagged.
func (m *nodeMac) armUnchecked() {
	m.k.Schedule(5, func(*sim.Kernel) { // want `scheduled callback captures crash-aware m but never checks its generation`
		m.armed = true
	})
}

// armChecked follows the convention: capture the generation outside,
// bail when it moved. Quiet.
func (m *nodeMac) armChecked() {
	gen := m.gen
	m.k.Schedule(5, func(*sim.Kernel) {
		if m.gen != gen {
			return // armed before a crash
		}
		m.armed = true
	})
}

// argUnchecked arms through ScheduleArgAt, the model's event idiom,
// and drops the argument word instead of comparing the generation it
// carries. Flagged.
func (m *nodeMac) argUnchecked() {
	m.k.ScheduleArgAt(5, func(*sim.Kernel) { // want `scheduled callback captures crash-aware m but never checks its generation`
		m.armed = true
	}, m.gen)
}

// argChecked carries the generation in the argument word and compares
// it on dispatch. Quiet.
func (m *nodeMac) argChecked() {
	m.k.ScheduleArgAt(5, func(k *sim.Kernel) {
		if k.Arg() != m.gen {
			return // armed before a crash
		}
		m.armed = true
	}, m.gen)
}

// timerUnchecked reaches the kernel through sim.NewTimer: same rule.
func (m *nodeMac) timerUnchecked() *sim.Timer {
	return sim.NewTimer(m.k, func(*sim.Kernel) { // want `scheduled callback captures crash-aware m`
		m.armed = true
	})
}

// injector has no gen field: it deliberately survives crashes (it is
// the thing that *causes* them), so its callbacks are unconstrained.
type injector struct {
	k     *sim.Kernel
	fired int
}

func (inj *injector) arm() {
	inj.k.ScheduleAt(7, func(*sim.Kernel) {
		inj.fired++
	})
}

// armWaived shows the escape hatch.
func (m *nodeMac) armWaived() {
	m.k.Schedule(5, func(*sim.Kernel) { //lint:allow eventgen boot-time arming, provably before any crash can be scheduled
		m.armed = true
	})
}

// csmaNode mirrors the contention MAC's backoff machinery: nested
// schedule chains where each hop re-arms the next, and a strobe timer.
type csmaNode struct {
	k       *sim.Kernel
	gen     uint64
	backoff int
}

// chainUnchecked rechecks the generation at the first hop but not the
// second: the inner hop fires long after the outer check ran, so it is
// flagged on its own.
func (m *csmaNode) chainUnchecked() {
	gen := m.gen
	m.k.Schedule(3, func(*sim.Kernel) {
		if m.gen != gen {
			return
		}
		m.k.Schedule(3, func(*sim.Kernel) { // want `scheduled callback captures crash-aware m but never checks its generation`
			m.backoff--
		})
	})
}

// chainChecked rechecks at every hop, the way the CSMA backoff ladder
// does. Quiet.
func (m *csmaNode) chainChecked() {
	gen := m.gen
	m.k.Schedule(3, func(*sim.Kernel) {
		if m.gen != gen {
			return
		}
		m.k.Schedule(3, func(*sim.Kernel) {
			if m.gen != gen {
				return
			}
			m.backoff--
		})
	})
}

// lplNode mirrors the preamble-sampling MAC: a strobe-gap timer armed
// through sim.NewTimer whose callback must survive a crash safely.
type lplNode struct {
	k       *sim.Kernel
	gen     uint64
	strobes int
}

// strobeTimerUnchecked captures the node without a generation check:
// a stale gap timer would keep strobing after a crash. Flagged.
func (m *lplNode) strobeTimerUnchecked() *sim.Timer {
	return sim.NewTimer(m.k, func(*sim.Kernel) { // want `scheduled callback captures crash-aware m but never checks its generation`
		m.strobes++
	})
}

// strobeTimerChecked is the convention the LPL strobe train follows.
// Quiet.
func (m *lplNode) strobeTimerChecked() *sim.Timer {
	gen := m.gen
	return sim.NewTimer(m.k, func(*sim.Kernel) {
		if m.gen != gen {
			return
		}
		m.strobes++
	})
}
