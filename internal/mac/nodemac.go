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

	// Steady-state protocol steps, each a handler bound once in
	// NewNodeMac, so a beacon cycle allocates nothing: a slot fire
	// carries its generation in the event's argument word; MCU and radio
	// completions need no state beyond the MAC's own fields.
	onSlotDue    sim.Handler
	onAckExpiry  sim.Handler
	beaconParsed func()
	ackProcessed func()
	dataLoaded   func()
	dataSent     func()
	// Control-frame transients (slot request, slot release), stepped the
	// same way. Each attempt is numbered, and only the latest is live:
	// ctrlAttempt is its number, ctrlGen the generation it was armed
	// under, ctrlRelease whether it is a release rather than a slot
	// request, and ctrlLoaded whether its frame made it into the radio
	// FIFO. Its prep and fire events carry the number, and its prep ISR
	// and FIFO clock-in queue their state on the MCU.
	ctrlAttempt  uint64
	ctrlGen      uint64
	ctrlRelease  bool
	ctrlLoaded   bool
	ctrlPreps    mcu.Queue[ctrlPrep]
	ctrlLoads    mcu.Queue[uint64]
	onCtrlPrep   sim.Handler
	onCtrlFire   sim.Handler
	ctrlPrepped  func()
	ctrlLoadDone func()
	ctrlSent     func()
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
	m.onCtrlPrep = m.ctrlPrepDue
	m.onCtrlFire = m.ctrlFireDue
	m.ctrlPrepped = m.onCtrlPrepped
	m.ctrlLoadDone = m.onCtrlLoaded
	m.ctrlSent = m.onCtrlSent
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
	lastFire := windowOpen - ssrAir - p.Radio.TxSettle - 300*sim.Microsecond
	// Static: anywhere in the receive region after the SB slot.
	lo, hi := m.slotDuration(), lastFire
	if m.cfg.Protocol == ProtoDynamic {
		// Random offset within the empty slot (ES), after the beacon.
		lo = 2 * sim.Millisecond
		hi = min(p.MAC.DynamicSlotDuration-ssrAir-p.Radio.TxSettle-500*sim.Microsecond, lastFire)
	}
	// The transmit must start after preparation completes.
	lo = max(lo, m.k.Now()-m.t0+loadLead)
	if hi <= lo {
		return // degenerate geometry; try next cycle
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
	m.armAttempt(prepAt, fireAt, false)
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
	m.armAttempt(prepAt, fireAt, true)
}

// ctrlPrepDue prepares the live attempt's slot request or release: the
// prep ISR marshals and loads it.
func (m *NodeMac) ctrlPrepDue(k *sim.Kernel) {
	if !m.attemptLive(k) {
		return // armed before a crash
	}
	if !m.ctrlRelease {
		if m.state != stateRequesting || m.radio.Mode() == radio.ModeRx {
			m.ssrScheduled = false
			return
		}
		m.ctrlPreps.Push(ctrlPrep{attempt: m.ctrlAttempt, ssr: m.nextSSR()})
		m.sched.Interrupt("ssr-prep", m.cfg.Profile.Cost.SSRPrep, m.ctrlPrepped)
		return
	}
	if m.state != stateJoined || !m.releasePending || m.ack.open ||
		m.loading || m.radio.Mode() == radio.ModeRx {
		return // busy radio or pipeline; retry on the next beacon
	}
	// Any stale data frame in the FIFO is abandoned: the application is
	// already stopped, and the release overwrites the FIFO.
	m.loaded = false
	m.dropInFlight()
	m.ctrlPreps.Push(ctrlPrep{attempt: m.ctrlAttempt, release: true})
	m.sched.Interrupt("release-prep", m.cfg.Profile.Cost.SSRPrep, m.ctrlPrepped)
}

// onCtrlPrepped loads the prepared slot request or release into the
// radio FIFO.
func (m *NodeMac) onCtrlPrepped() {
	c := m.ctrlPreps.Pop()
	if m.radio.Mode() == radio.ModeRx {
		if !c.release {
			m.ssrScheduled = false
		}
		return
	}
	if c.release {
		m.ctrlBuf = packet.Release{NodeID: m.cfg.NodeID}.AppendMarshal(m.ctrlBuf[:0])
	} else {
		m.ctrlBuf = c.ssr.AppendMarshal(m.ctrlBuf[:0])
	}
	m.ctrlLoads.Push(c.attempt)
	m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.ctrlLoadDone)
}

// ctrlFireDue fires the live attempt's frame if it was loaded: a slot
// request at its offset, a release in the node's slot.
func (m *NodeMac) ctrlFireDue(k *sim.Kernel) {
	if !m.attemptLive(k) {
		return // armed before a crash
	}
	if !m.ctrlRelease {
		if m.state != stateRequesting || !m.ctrlLoaded || m.radio.Mode() == radio.ModeRx {
			m.ssrScheduled = false
			return
		}
	} else if m.state != stateJoined || !m.releasePending || !m.ctrlLoaded ||
		m.radio.Mode() == radio.ModeRx {
		return
	}
	m.radio.Fire(m.ctrlSent)
}

// onCtrlSent accounts the fired frame once it has flown: a slot request
// powers the radio down, a release parks the MAC. No attempt is armed
// while a control frame is on the air, so the live one is the one that
// flew.
func (m *NodeMac) onCtrlSent() {
	if m.ctrlRelease {
		m.releaseFlown("slot=%d")
		return
	}
	m.ssrScheduled = false
	m.ssrFlown()
	m.radio.PowerDown()
}

// ctrlPrep is the state of a control frame's prep ISR.
type ctrlPrep struct {
	attempt uint64
	release bool
	ssr     packet.SSR // zero for a release
}

// armAttempt makes a new control-frame attempt, a slot release or a slot
// request, the live one, replacing any attempt a crash left behind, and
// arms its prep and fire events.
func (m *NodeMac) armAttempt(prepAt, fireAt sim.Time, release bool) {
	m.ctrlAttempt++
	m.ctrlGen, m.ctrlLoaded, m.ctrlRelease = m.gen, false, release
	m.k.ScheduleArgAt(prepAt, m.onCtrlPrep, m.ctrlAttempt)
	m.k.ScheduleArgAt(fireAt, m.onCtrlFire, m.ctrlAttempt)
}

// attemptLive reports whether the prep or fire event being dispatched
// belongs to the live attempt and no crash has intervened since it was
// armed.
func (m *NodeMac) attemptLive(k *sim.Kernel) bool {
	return k.Arg() == m.ctrlAttempt && m.ctrlGen == m.gen
}

// onCtrlLoaded marks an attempt's frame loaded. A load completing after
// a newer attempt was armed has no one left to tell, and one completing
// after its own attempt's fire event is never read.
func (m *NodeMac) onCtrlLoaded() {
	if m.ctrlLoads.Pop() == m.ctrlAttempt {
		m.ctrlLoaded = true
	}
}

// --- steady state: data path ---------------------------------------------

// tryLoad moves the head-of-queue payload into the TX FIFO when the radio
// is free and the next beacon window is far enough away.
//
//hot:path
func (m *NodeMac) tryLoad() {
	if m.state != stateJoined || m.releasePending || m.loading || m.loaded || m.ack.open || m.queue.Len() == 0 {
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
	m.k.ScheduleArgAt(fireAt, m.onSlotDue, m.gen)
}

// slotDue runs at the node's slot boundary.
//
//hot:path
func (m *NodeMac) slotDue(k *sim.Kernel) {
	if k.Arg() != m.gen {
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
