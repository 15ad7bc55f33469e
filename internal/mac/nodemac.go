package mac

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// NodeMac is the sensor-node side of the TDMA protocol: the beacon-synced
// node core plus the slot fire and the slot-request and slot-release
// attempts.
type NodeMac struct {
	beaconSync

	// Per-event state of the steady-state protocol steps, each stepped by
	// a handler bound once in NewNodeMac, so a beacon cycle allocates
	// nothing: slot fires file their generation by event ID; MCU and
	// radio completions need no state beyond the MAC's own fields.
	slotFires    sim.Pending[uint64]
	onSlotDue    sim.Handler
	onAckExpiry  sim.Handler
	beaconParsed func()
	ackProcessed func()
	dataLoaded   func()
	dataSent     func()
	// Control-frame transients (slot request, slot release), stepped the
	// same way. Each attempt is numbered: its prep and fire events carry
	// (generation, attempt), its prep ISR and FIFO clock-in queue their
	// state on the MCU, and ctrlAttempts records whether the frame was
	// loaded until the attempt's fire event reads it.
	ctrlSteps    sim.Pending[ctrlArm]
	ctrlPreps    mcu.Queue[ctrlPrep]
	ctrlLoads    mcu.Queue[uint64]
	ctrlAttempts []ctrlAttempt
	ctrlSeq      uint64
	onSSRPrep    sim.Handler
	onSSRFire    sim.Handler
	onRelPrep    sim.Handler
	onRelFire    sim.Handler
	ssrPrepped   func()
	relPrepped   func()
	ctrlLoadDone func()
	ssrSent      func()
	relSent      func()
	ssrScheduled bool
}

// NewNodeMac wires a node MAC over its radio and OS.
func NewNodeMac(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *NodeMac {
	m := &NodeMac{}
	m.init(k, cfg, sched, r, ledger, tracer, m.resetSSR)
	m.onSlotDue = m.slotDue
	m.onAckExpiry = m.ackExpired
	m.beaconParsed = m.afterBeacon
	m.ackProcessed = m.tryLoad
	m.dataLoaded = m.onDataLoaded
	m.dataSent = m.onDataSent
	m.ctrlPreps = mcu.NewQueue[ctrlPrep](sched.MCU())
	m.ctrlLoads = mcu.NewQueue[uint64](sched.MCU())
	m.onSSRPrep = m.ssrPrepDue
	m.onSSRFire = m.ssrFireDue
	m.onRelPrep = m.relPrepDue
	m.onRelFire = m.relFireDue
	m.ssrPrepped = m.onSSRPrepped
	m.relPrepped = m.onRelPrepped
	m.ctrlLoadDone = m.onCtrlLoaded
	m.ssrSent = m.onSSRSent
	m.relSent = m.onRelSent
	r.SetReceiveHandler(m.onFrame)
	return m
}

// resetSSR forgets a pending slot request (crash, park, rejoin).
func (m *NodeMac) resetSSR() { m.ssrScheduled = false }

// Send implements Mac. The payload is copied into a recycled buffer and
// loaded right away when the radio is free.
//
//hot:path
func (m *NodeMac) Send(payload []byte) bool {
	if !m.nodeCore.Send(payload) {
		return false
	}
	m.tryLoad()
	return true
}

// --- protocol timing helpers -------------------------------------------

// slotDuration reports the data-slot length under the current cycle.
func (m *NodeMac) slotDuration() sim.Time {
	return slotDuration(&m.cfg.Profile.MAC, m.cfg.Protocol, m.cycle)
}

// slotStart reports the offset of slot i from the beacon air start. Slot
// 0 begins after the SB (static) / SB+ES (dynamic) control region, which
// both variants size as one slot.
func (m *NodeMac) slotStart(i int) sim.Time {
	return m.slotDuration() * sim.Time(i+1)
}

// --- frame dispatch ------------------------------------------------------

// onFrame dispatches a received frame; a resolved ack runs the
// ack-process task before the next load.
//
//hot:path
func (m *NodeMac) onFrame(f packet.Frame) {
	if m.receive(f, m.beaconParsed) {
		m.sched.Interrupt("ack-process", m.cfg.Profile.Cost.AckProcess, m.ackProcessed)
	}
}

// afterBeacon schedules this cycle's activity once parsing is done.
//
//hot:path
func (m *NodeMac) afterBeacon() {
	m.scheduleNextWindow()
	switch m.state {
	case stateRequesting:
		m.scheduleSSR()
	case stateJoined:
		if m.releasePending {
			m.scheduleRelease()
			return
		}
		if m.skipStretched("cycle=%d") {
			return // duty-cycle stretch: sleep through our slot this cycle
		}
		m.tryLoad()
		m.scheduleSlotFire()
	}
}

// --- join: slot request --------------------------------------------------

// scheduleSSR transmits a slot request at a random offset inside the
// variant's request region of the current cycle.
//
//hot:path
func (m *NodeMac) scheduleSSR() {
	if m.ssrScheduled {
		return
	}
	p := m.cfg.Profile
	ssrAir := p.Radio.Airtime(packet.SSRBytes)
	loadLead := p.Radio.TxClockIn(p.Radio.AddressBytes+packet.SSRBytes) +
		p.MCU.CyclesToTime(p.Cost.SSRPrep) + 100*sim.Microsecond

	// The whole SSR operation (prep, load, settle, burst) must finish
	// before the next beacon listen window opens.
	windowOpen := m.cycle - m.guard() - p.Radio.RxSettle
	var lo, hi sim.Time
	if m.cfg.Protocol == ProtoDynamic {
		// Random offset within the empty slot (ES), after the beacon.
		lo = 2 * sim.Millisecond
		hi = p.MAC.DynamicSlotDuration - ssrAir - p.Radio.TxSettle - 500*sim.Microsecond
	} else {
		// Static: anywhere in the receive region after the SB slot.
		lo = m.slotDuration()
		hi = windowOpen - ssrAir - p.Radio.TxSettle - 300*sim.Microsecond
	}
	if hi > windowOpen-ssrAir-p.Radio.TxSettle-300*sim.Microsecond {
		hi = windowOpen - ssrAir - p.Radio.TxSettle - 300*sim.Microsecond
	}
	if hi <= lo {
		return // degenerate geometry; try next cycle
	}
	// The transmit must start after preparation completes.
	earliest := m.k.Now() - m.t0 + loadLead
	if earliest > lo {
		lo = earliest
	}
	if hi <= lo {
		return
	}
	off := lo + sim.Time(m.k.Rand().Int63n(int64(hi-lo)))
	fireAt := m.t0 + m.local(off)
	prepAt := fireAt - loadLead
	if prepAt <= m.k.Now() {
		// A fast local clock compresses the offset below the preparation
		// lead; skip this cycle and request on the next beacon.
		return
	}
	m.ssrScheduled = true
	arm := ctrlArm{gen: m.gen, attempt: m.newAttempt()}
	m.ctrlSteps.ScheduleAt(m.k, prepAt, m.onSSRPrep, arm)
	m.ctrlSteps.ScheduleAt(m.k, fireAt, m.onSSRFire, arm)
}

// ssrPrepDue prepares the slot request: the prep ISR marshals and loads
// it.
func (m *NodeMac) ssrPrepDue(k *sim.Kernel) {
	arm := m.ctrlSteps.Take(k)
	if m.gen != arm.gen {
		return // armed before a crash
	}
	if m.state != stateRequesting || m.radio.Mode() == radio.ModeRx {
		m.ssrScheduled = false
		return
	}
	m.ctrlPreps.Push(ctrlPrep{attempt: arm.attempt, ssr: m.nextSSR()})
	m.sched.Interrupt("ssr-prep", m.cfg.Profile.Cost.SSRPrep, m.ssrPrepped)
}

// onSSRPrepped loads the slot request into the radio FIFO.
func (m *NodeMac) onSSRPrepped() {
	c := m.ctrlPreps.Pop()
	if m.radio.Mode() == radio.ModeRx {
		m.ssrScheduled = false
		return
	}
	m.ctrlBuf = c.ssr.AppendMarshal(m.ctrlBuf[:0])
	m.ctrlLoads.Push(c.attempt)
	m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.ctrlLoadDone)
}

// ssrFireDue fires the slot request at its offset if it was loaded.
func (m *NodeMac) ssrFireDue(k *sim.Kernel) {
	arm := m.ctrlSteps.Take(k)
	loaded := m.takeAttempt(arm.attempt)
	if m.gen != arm.gen {
		return // armed before a crash
	}
	if m.state != stateRequesting || !loaded || m.radio.Mode() == radio.ModeRx {
		m.ssrScheduled = false
		return
	}
	m.radio.Fire(m.ssrSent)
}

// onSSRSent accounts the slot request once it has flown.
func (m *NodeMac) onSSRSent() {
	m.ssrScheduled = false
	m.ssrFlown()
	m.radio.PowerDown()
}

// scheduleRelease transmits the voluntary slot release in the node's own
// data slot (collision-free by construction, like a data frame), then
// parks the MAC in beacon-only mode. A lost release is tolerated: the
// base station's silence reclaim frees the slot a few cycles later, and
// the parked node ignores its stale table row until then.
//
//hot:path
func (m *NodeMac) scheduleRelease() {
	p := m.cfg.Profile
	loadLead := p.Radio.TxClockIn(p.Radio.AddressBytes+packet.ReleaseBytes) +
		p.MCU.CyclesToTime(p.Cost.SSRPrep) + 100*sim.Microsecond
	fireAt := m.t0 + m.local(m.slotStart(m.slot))
	prepAt := fireAt - loadLead
	if prepAt <= m.k.Now() {
		return // our slot already passed this cycle; announce on the next
	}
	arm := ctrlArm{gen: m.gen, attempt: m.newAttempt()}
	m.ctrlSteps.ScheduleAt(m.k, prepAt, m.onRelPrep, arm)
	m.ctrlSteps.ScheduleAt(m.k, fireAt, m.onRelFire, arm)
}

// relPrepDue prepares the slot release: the prep ISR marshals and loads
// it.
func (m *NodeMac) relPrepDue(k *sim.Kernel) {
	arm := m.ctrlSteps.Take(k)
	if m.gen != arm.gen {
		return // armed before a crash
	}
	if m.state != stateJoined || !m.releasePending || m.ackWaiting ||
		m.loading || m.radio.Mode() == radio.ModeRx {
		return // busy radio or pipeline; retry on the next beacon
	}
	// Any stale data frame in the FIFO is abandoned: the application is
	// already stopped, and the release overwrites the FIFO.
	m.loaded = false
	m.dropInFlight()
	m.ctrlPreps.Push(ctrlPrep{attempt: arm.attempt})
	m.sched.Interrupt("release-prep", m.cfg.Profile.Cost.SSRPrep, m.relPrepped)
}

// onRelPrepped loads the slot release into the radio FIFO.
func (m *NodeMac) onRelPrepped() {
	c := m.ctrlPreps.Pop()
	if m.radio.Mode() == radio.ModeRx {
		return
	}
	m.ctrlBuf = packet.Release{NodeID: m.cfg.NodeID}.AppendMarshal(m.ctrlBuf[:0])
	m.ctrlLoads.Push(c.attempt)
	m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.ctrlLoadDone)
}

// relFireDue fires the slot release in the node's slot if it was loaded.
func (m *NodeMac) relFireDue(k *sim.Kernel) {
	arm := m.ctrlSteps.Take(k)
	loaded := m.takeAttempt(arm.attempt)
	if m.gen != arm.gen {
		return // armed before a crash
	}
	if m.state != stateJoined || !m.releasePending || !loaded ||
		m.radio.Mode() == radio.ModeRx {
		return
	}
	m.radio.Fire(m.relSent)
}

// onRelSent accounts the slot release once it has flown and parks.
func (m *NodeMac) onRelSent() { m.releaseFlown("slot=%d") }

// ctrlArm is the state of a control-frame attempt's prep and fire events.
type ctrlArm struct {
	gen     uint64
	attempt uint64
}

// ctrlPrep is the state of a control frame's prep ISR.
type ctrlPrep struct {
	attempt uint64
	ssr     packet.SSR // zero for a release
}

// ctrlAttempt records whether an attempt's frame has been loaded.
type ctrlAttempt struct {
	id     uint64
	loaded bool
}

// newAttempt numbers a control-frame attempt and tracks it until its
// fire event reads whether the frame made it into the radio FIFO.
func (m *NodeMac) newAttempt() uint64 {
	m.ctrlSeq++
	m.ctrlAttempts = append(m.ctrlAttempts, ctrlAttempt{id: m.ctrlSeq})
	return m.ctrlSeq
}

// onCtrlLoaded marks an attempt's frame loaded. A load completing after
// its attempt's fire event has no one left to tell.
func (m *NodeMac) onCtrlLoaded() {
	id := m.ctrlLoads.Pop()
	for i := range m.ctrlAttempts {
		if m.ctrlAttempts[i].id == id {
			m.ctrlAttempts[i].loaded = true
		}
	}
}

// takeAttempt ends an attempt at its fire event, reporting whether its
// frame was loaded in time.
func (m *NodeMac) takeAttempt(id uint64) bool {
	for i, a := range m.ctrlAttempts {
		if a.id == id {
			m.ctrlAttempts = append(m.ctrlAttempts[:i], m.ctrlAttempts[i+1:]...)
			return a.loaded
		}
	}
	panic(fmt.Sprintf("mac %s: fire event for unknown attempt %d", m.name, id))
}

// --- steady state: data path ---------------------------------------------

// tryLoad moves the head-of-queue payload into the TX FIFO when the radio
// is free and the next beacon window is far enough away.
//
//hot:path
func (m *NodeMac) tryLoad() {
	if m.state != stateJoined || m.releasePending || m.loading || m.loaded || m.ackWaiting || m.queue.Len() == 0 {
		return
	}
	if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
		return
	}
	p := m.cfg.Profile
	item := m.queue.Peek()
	loadDur := p.Radio.TxClockIn(p.Radio.AddressBytes + len(item.payload))
	margin := 500 * sim.Microsecond
	if m.k.Now()+loadDur+margin >= m.nextWindowOpen() && m.cycle > 0 {
		return // too close to the beacon window; retry after the beacon
	}
	m.launch()
	m.loading = true
	m.radio.Load(m.cfg.Plan.BSData, item.payload, m.dataLoaded)
}

// onDataLoaded parks the radio once the data frame sits in its FIFO.
//
//hot:path
func (m *NodeMac) onDataLoaded() {
	m.loading = false
	m.loaded = true
	m.radio.PowerDown() // FIFO retains the frame; sleep until the slot
}

// scheduleSlotFire arms this cycle's transmission at the slot boundary.
//
//hot:path
func (m *NodeMac) scheduleSlotFire() {
	fireAt := m.t0 + m.local(m.slotStart(m.slot))
	if fireAt <= m.k.Now() {
		return // our slot already passed this cycle
	}
	m.slotFires.ScheduleAt(m.k, fireAt, m.onSlotDue, m.gen)
}

// slotDue runs at the node's slot boundary.
//
//hot:path
func (m *NodeMac) slotDue(k *sim.Kernel) {
	if gen := m.slotFires.Take(k); m.gen != gen {
		return // armed before a crash
	}
	m.fireSlot()
}

// fireSlot transmits the loaded frame at the slot boundary and opens the
// acknowledgement window.
func (m *NodeMac) fireSlot() {
	if m.state != stateJoined || !m.loaded {
		return
	}
	if m.radio.Mode() == radio.ModeRx {
		return // window overlap guard; skip this cycle
	}
	m.loaded = false
	metrics.Record1(m.tracer, m.k.Now(), m.trace, metrics.KindSlotStart, "slot=%d", m.slot)
	m.noteQueueDelay()
	m.radio.Fire(m.dataSent)
}

// onDataSent opens the acknowledgement window once the data burst ends.
//
//hot:path
func (m *NodeMac) onDataSent() { m.dataFlown(m.onAckExpiry) }

// ackExpired runs an acknowledgement window's timeout: a lost frame is
// retried or dropped, and tryLoad applies its window-margin checks before
// touching the radio again.
//
//hot:path
func (m *NodeMac) ackExpired(*sim.Kernel) {
	if m.ackMissed() {
		m.tryLoad()
	}
}

// AuditProtocol implements NodeMAC: the TDMA node's protocol-specific
// law is grant-window containment from the node's own view. A joined
// node's data slot, as timed against the cycle length it learned from
// its reference beacon, must end inside that cycle. Slot index and cycle
// always come from the same beacon (dead reckoning keeps both), so the
// law holds through compactions the node has not yet heard; a violation
// means the base station granted a slot outside the frame it advertised.
func (m *NodeMac) AuditProtocol() []string {
	if m.state != stateJoined || m.cycle <= 0 {
		return nil
	}
	var v []string
	if m.slot < 0 {
		v = append(v, fmt.Sprintf("joined with invalid slot %d", m.slot))
		return v
	}
	if end := m.slotStart(m.slot) + m.slotDuration(); end > m.cycle {
		v = append(v, fmt.Sprintf("slot %d window ends at %v, past the %v cycle",
			m.slot, end, m.cycle))
	}
	return v
}
