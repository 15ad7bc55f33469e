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
	// completions need no state beyond the MAC's own fields. A data
	// frame's FIFO clock-in ends with the radio powering down
	// (radio.LoadPark), so loaded is set from its start, and the slot
	// fires it only once the radio reports it Loaded.
	onTimer      sim.Handler // slot fires, ack timeouts and control-frame steps (see timerDue)
	beaconParsed func()
	dataSent     func()
	// The ack-process ISR runs without a completion callback: its
	// callback, tryLoad, is speculated on at submission
	// (speculateLoad), as of the hand-off ackAt, the ISR's completion
	// position. Unspeculate falls back, running tryLoad through a timer
	// event at the hand-off after all; ackLoaded (below) is set when the
	// speculation loaded the payload.
	ackAt sim.Pos
	// Control-frame transients (slot request, slot release), stepped the
	// same way. Each attempt is numbered, and only the latest is live:
	// ctrlAttempt is its number, ctrlGen the generation it was armed
	// under, ctrlRelease whether it is a release rather than a slot
	// request, and ctrlLoad the number of the attempt whose frame was
	// clocked into the radio FIFO last, where it waits in standby. Its
	// prep and fire events carry the number, and its prep ISR queues its
	// state on the MCU.
	ctrlAttempt uint64
	ctrlGen     uint64
	ctrlRelease bool
	ackLoaded   bool
	// callbacks makes the ack-process ISR complete through an event
	// that runs tryLoad, instead of speculating on it: the reference the
	// speculation is tested against.
	callbacks   bool
	ctrlLoad    uint64
	ctrlPreps   mcu.Queue[ctrlPrep]
	ctrlPrepped func()
	ctrlSent    func()
}

// NewNodeMac wires a node MAC over its radio and OS.
func NewNodeMac(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *NodeMac {
	m := &NodeMac{}
	m.init(k, cfg, sched, r, ledger, tracer, nil)
	m.onTimer = m.timerDue
	m.beaconParsed = m.afterBeacon
	m.dataSent = m.onDataSent
	m.ctrlPreps = mcu.NewQueue[ctrlPrep](sched.MCU())
	m.ctrlPreps.Placed()
	m.ctrlPrepped = m.onCtrlPrepped
	m.ctrlSent = m.onCtrlSent
	r.SetReceiveHandler(m.onFrame)
	return m
}

// Send implements Mac. The payload is copied into a recycled buffer and
// loaded right away when the radio is free.
//
// A Send before a speculation's hand-off changes what tryLoad does
// there, but it runs tryLoad itself: the speculation is taken back
// without its event, and made again as of the state Send leaves.
//
//hot:path
func (m *NodeMac) Send(payload []byte) bool {
	respec := false
	if m.speculated {
		m.speculated = false
		respec = m.sched.Speculating()
		m.sched.Forget()
		if respec {
			m.undoLoad()
		} else {
			m.radio.Sync()
		}
	}
	ok := m.nodeCore.Send(payload)
	if ok {
		m.tryLoad()
	}
	if respec {
		m.speculateLoad(m.ackAt)
	}
	return ok
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
// ack-process ISR before the next load.
//
//hot:path
func (m *NodeMac) onFrame(f packet.Frame) {
	m.enter()
	if m.receive(f, m.beaconParsed) {
		m.sched.Interrupt("ack-process", m.cfg.Profile.Cost.AckProcess, nil)
		if m.callbacks {
			m.ackAt = m.sched.MCU().Completion()
			m.k.ScheduleReserved(m.ackAt, m.onTimer, m.gen<<timerTagBits|timerAckDone)
			return
		}
		m.speculateLoad(m.sched.MCU().Completion())
	}
}

// speculateLoad applies tryLoad, the ack-process ISR's callback, as of
// the ISR's completion at, the hand-off: it loads the head payload, its
// FIFO clock-in chained to the ISR (radio.Radio.ChainLoadPark), if
// tryLoad would load it there. That holds unless something enters the
// MAC before the hand-off, or submits work to the MCU once the load is
// chained: each first settles the speculation (tinyos.Sched.Settle),
// which then falls back to the callback. mayLoad reads only MAC state,
// which nothing but such an entry changes, and the radio's mode, which
// the ack window's end just fixed at off.
//
//hot:path
func (m *NodeMac) speculateLoad(at sim.Pos) {
	m.ackAt, m.ackLoaded = at, false
	m.sched.Speculate(at, m)
	m.speculated = true
	if !m.mayLoad(at.At) {
		return
	}
	if m.hasInFlight || !m.radio.ChainLoadPark(m.cfg.Plan.BSData, m.queue.Peek().payload) {
		m.enter() // the load cannot be chained: fall back at once
		return
	}
	m.launch()
	m.loaded, m.ackLoaded = true, true
}

// Unspeculate implements tinyos.Speculation: it falls back from
// speculateLoad's speculation. The load is taken back, and tryLoad runs
// at the hand-off after all, through an event there.
func (m *NodeMac) Unspeculate() {
	m.undoLoad()
	m.k.ScheduleReserved(m.ackAt, m.onTimer, m.gen<<timerTagBits|timerAckDone)
}

// undoLoad takes back the load speculateLoad chained, if it did.
func (m *NodeMac) undoLoad() {
	if !m.ackLoaded {
		return
	}
	m.ackLoaded = false
	m.radio.Unchain()
	m.sched.MCU().UnchainTo(m.ackAt)
	m.queue.PushFront(m.inFlight)
	m.dropInFlight()
	m.loaded = false
}

// afterBeacon schedules this cycle's activity once parsing is done.
//
//hot:path
func (m *NodeMac) afterBeacon() {
	m.enter()
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

// The timer events of a NodeMac share one handler, timerDue: the low
// bits of an event's argument word tag its step, and the bits above
// hold the crash generation of a slot fire or an ack-process ISR's
// completion, or the attempt number of a control-frame step.
const (
	timerSlot      = iota // fire the data frame at the slot boundary
	timerCtrlPrep         // prepare a control frame
	timerCtrlFire         // fire it
	timerAckDone          // tryLoad as an ack-process ISR completes (Unspeculate)
	timerAckExpiry        // an acknowledgement window times out
	timerTagBits   = 3
)

// timerDue dispatches a timer event to its step.
//
//hot:path
func (m *NodeMac) timerDue(k *sim.Kernel) {
	m.enter()
	v := k.Arg() >> timerTagBits
	switch k.Arg() & (1<<timerTagBits - 1) {
	case timerSlot:
		m.slotDue(v)
	case timerCtrlPrep:
		m.ctrlPrepDue(v)
	case timerCtrlFire:
		m.ctrlFireDue(v)
	case timerAckDone:
		if v == m.gen {
			m.tryLoad()
		}
	default:
		m.ackExpired()
	}
}

// ctrlPrepDue prepares the live attempt's slot request or release: the
// prep ISR marshals and loads it.
func (m *NodeMac) ctrlPrepDue(attempt uint64) {
	if !m.attemptLive(attempt) {
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
		m.loaded && !m.radio.Loaded() || m.radio.Mode() == radio.ModeRx {
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
	m.enter()
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
	m.ctrlLoad = c.attempt
	m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, nil)
}

// ctrlFireDue fires the live attempt's frame if it was loaded: a slot
// request at its offset, a release in the node's slot.
func (m *NodeMac) ctrlFireDue(attempt uint64) {
	if !m.attemptLive(attempt) {
		return // armed before a crash
	}
	loaded := m.ctrlLoad == m.ctrlAttempt && m.radio.Loaded()
	if !m.ctrlRelease {
		if m.state != stateRequesting || !loaded || m.radio.Mode() == radio.ModeRx {
			m.ssrScheduled = false
			return
		}
	} else if m.state != stateJoined || !m.releasePending || !loaded ||
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
	m.enter()
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
	m.ctrlGen, m.ctrlRelease = m.gen, release
	m.k.ScheduleArgAt(prepAt, m.onTimer, m.ctrlAttempt<<timerTagBits|timerCtrlPrep)
	m.k.ScheduleArgAt(fireAt, m.onTimer, m.ctrlAttempt<<timerTagBits|timerCtrlFire)
}

// attemptLive reports whether the prep or fire event of attempt being
// dispatched belongs to the live attempt and no crash has intervened
// since it was armed.
func (m *NodeMac) attemptLive(attempt uint64) bool {
	return attempt == m.ctrlAttempt && m.ctrlGen == m.gen
}

// --- steady state: data path ---------------------------------------------

// tryLoad moves the head-of-queue payload into the TX FIFO when the radio
// is free and the next beacon window is far enough away.
//
//hot:path
func (m *NodeMac) tryLoad() {
	if !m.mayLoad(m.k.Now()) {
		return
	}
	item := m.queue.Peek()
	m.launch()
	m.loaded = true
	// The FIFO retains the frame; the radio sleeps until the slot.
	m.radio.LoadPark(m.cfg.Plan.BSData, item.payload)
}

// mayLoad reports whether tryLoad at instant at loads the head payload:
// the radio is free and the next beacon window is far enough away.
//
//hot:path
func (m *NodeMac) mayLoad(at sim.Time) bool {
	if m.state != stateJoined || m.releasePending || m.loaded || m.ack.open || m.queue.Len() == 0 {
		return false
	}
	if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
		return false
	}
	p := m.cfg.Profile
	loadDur := p.Radio.TxClockIn(p.Radio.AddressBytes + len(m.queue.Peek().payload))
	margin := 500 * sim.Microsecond
	// Too close to the beacon window: retry after the beacon.
	return at+loadDur+margin < m.nextWindowOpen() || m.cycle <= 0
}

// scheduleSlotFire arms this cycle's transmission at the slot boundary.
//
//hot:path
func (m *NodeMac) scheduleSlotFire() {
	fireAt := m.t0 + m.local(m.slotStart(m.slot))
	if fireAt <= m.k.Now() {
		return // our slot already passed this cycle
	}
	m.k.ScheduleArgAt(fireAt, m.onTimer, m.gen<<timerTagBits|timerSlot)
}

// slotDue runs at the node's slot boundary; gen is the generation its
// event was armed under.
//
//hot:path
func (m *NodeMac) slotDue(gen uint64) {
	if gen != m.gen {
		return // armed before a crash
	}
	m.fireSlot()
}

// fireSlot transmits the loaded frame at the slot boundary and opens the
// acknowledgement window. A slot that comes before the frame's clock-in
// has ended is skipped.
func (m *NodeMac) fireSlot() {
	if m.state != stateJoined || !m.loaded || !m.radio.Loaded() {
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
func (m *NodeMac) onDataSent() {
	m.enter()
	m.dataFlown(m.onTimer, timerAckExpiry)
}

// ackExpired runs an acknowledgement window's timeout: a lost frame is
// retried or dropped, and tryLoad applies its window-margin checks before
// touching the radio again.
//
//hot:path
func (m *NodeMac) ackExpired() {
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
	m.enter()
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
