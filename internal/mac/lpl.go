package mac

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// Preamble-sampling low-power listening (X-MAC style): there are no
// beacons and no shared timebase. The base station sleeps its receiver
// and wakes every check interval for a short channel probe; a node with
// a frame pending transmits a train of short strobe packets, listening
// briefly after each one, until the base station's probe catches a
// strobe and answers with an early ack that truncates the train. The
// node then delivers its payload (and up to a small burst of further
// queued frames) into the open receive window. Association is the same
// SSR/ack handshake, carried over a strobe train; membership is kept by
// the base station exactly like a slot table, minus the slots.
const (
	// DefaultLPLCheckInterval is the sampling period when the
	// configuration does not name one.
	DefaultLPLCheckInterval = 100 * sim.Millisecond
	// lplWakeBurst caps how many data frames one receiver wake may carry
	// (first frame plus continuation frames sent ack-to-ack).
	lplWakeBurst = 4
	// lplPayloadWait is how long the woken receiver holds its window open
	// for the payload after an early ack (the sender's FIFO load at the
	// energy-relaxed clock-in rate dominates it).
	lplPayloadWait = 8 * sim.Millisecond
	// lplMaxStrobeSpacing bounds the gap between consecutive strobe air
	// starts; the probe window is sized to span one full spacing so a
	// probe that opens mid-strobe still catches the next one whole. Node
	// construction checks its actual spacing against this bound.
	lplMaxStrobeSpacing = 2200 * sim.Microsecond
	// lplStrobeGapMargin pads the node's post-strobe listen gap beyond
	// the base station's turnaround time.
	lplStrobeGapMargin = 200 * sim.Microsecond
	// lplDeferFloor/lplDeferSpan bound the random pause a strober takes
	// when its listen gap senses a foreign transaction on the medium
	// (X-MAC's neighbour deference): long enough to clear a payload
	// exchange, short enough not to miss the next probe.
	lplDeferFloor = 2 * sim.Millisecond
	lplDeferSpan  = 8 * sim.Millisecond
)

// lplOp names what a strobe train is trying to deliver.
type lplOp int

const (
	lplOpNone lplOp = iota
	lplOpSSR
	lplOpData
)

// LPLNode is the sensor-node side of the preamble-sampling MAC: the node
// core plus the strobe train and the wake burst it opens.
type LPLNode struct {
	nodeCore

	checkInterval sim.Time
	strobeGap     sim.Time // post-strobe early-ack listen window
	maxStrobes    int      // train budget: one check interval plus margin

	op       lplOp
	opActive bool

	strobeCount int
	gap         rxWindow // post-strobe listen for the early ack
	ssrWait     rxWindow // listen for the association ack
	burstLeft   int

	// Steady-state steps, each a handler bound once in NewLPLNode. Crash
	// and park cancel the gap, SSR and ack timeouts; a delayed restart
	// carries its generation and op in the event's argument word, as
	// gen<<2 | op, where lplOpNone resumes a deferred train.
	onRetry     sim.Handler
	onGapExpiry sim.Handler
	onSSRExpiry sim.Handler
	onAckExpiry sim.Handler
	strobeSent  func()
	ssrPrepped  func()
	ssrSent     func()
	dataLoaded  func()
	dataSent    func()
	// ssr is the association request the prep ISR marshals, and ssrGen
	// the crash generation it was prepared under.
	ssr    packet.SSR
	ssrGen uint64
}

// NewLPLNode wires an LPL node MAC over its radio and OS. A zero
// CheckInterval selects DefaultLPLCheckInterval; it must match the base
// station's sampling period (core wires both from one config).
func NewLPLNode(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *LPLNode {
	p := cfg.Profile
	m := &LPLNode{checkInterval: lplCheckInterval(cfg.Params)}
	m.init(k, cfg, sched, r, ledger, tracer, m.stopTrain)
	m.dataHeader = packet.DataHeaderBytes
	// Post-strobe listen gap: early ack settle-to-drain plus the base
	// station's turnaround margin.
	m.strobeGap = p.Radio.RxSettle + p.Radio.Airtime(packet.StrobeAckBytes) +
		p.Radio.RxClockOut(packet.StrobeAckBytes) + lplStrobeGapMargin
	spacing := m.strobeSpacing()
	if spacing+p.Radio.Airtime(packet.StrobeBytes)+100*sim.Microsecond > lplMaxStrobeSpacing {
		panic(fmt.Sprintf("mac %s: strobe spacing %v exceeds the %v probe-window bound",
			m.name, spacing, lplMaxStrobeSpacing))
	}
	m.maxStrobes = int(m.checkInterval/spacing) + 3
	m.onRetry = m.retryDue
	m.onGapExpiry = m.onStrobeGapTimeout
	m.onSSRExpiry = m.onSSRTimeout
	m.onAckExpiry = m.onAckTimeout
	m.strobeSent = m.onStrobeSent
	m.ssrPrepped = m.onSSRPrepped
	m.ssrSent = m.onSSRSent
	m.dataLoaded = m.onDataLoaded
	m.dataSent = m.onDataSent
	r.SetReceiveHandler(m.onFrame)
	return m
}

// strobeSpacing reports the cadence of the strobe train: FIFO reload,
// settle, strobe burst, listen gap.
func (m *LPLNode) strobeSpacing() sim.Time {
	p := m.cfg.Profile
	return p.Radio.TxClockIn(p.Radio.AddressBytes+packet.StrobeBytes) +
		p.Radio.TxSettle + p.Radio.Airtime(packet.StrobeBytes) + m.strobeGap
}

// Start implements Mac: there is no beacon to find, so the node goes
// straight to the association handshake at a random desynchronising
// offset inside one check interval.
func (m *LPLNode) Start() {
	if m.beaconOnly {
		// Battery-parked across a reboot: with no beacons to track, a
		// parked LPL node is simply silent.
		m.state = stateParked
		m.tracer.RecordID(m.k.Now(), m.trace, metrics.KindParked, "")
		return
	}
	m.state = stateRequesting
	if m.joinedEver {
		m.startRejoinClock()
	}
	m.retryAfter(sim.Time(m.k.Rand().Int63n(int64(m.checkInterval))), lplOpSSR)
}

// CycleLength implements Mac: the regulation period is the receiver's
// sampling interval.
func (m *LPLNode) CycleLength() sim.Time { return m.checkInterval }

// EnterBeaconOnly implements NodeMAC: with no beacons to keep, the final
// degradation rung of an LPL node is radio silence — the base station's
// silence reclaim retires the membership. Unlike the beaconed MACs the
// parked node keeps no windows at all.
func (m *LPLNode) EnterBeaconOnly() {
	if m.beaconOnly {
		return
	}
	m.beaconOnly = true
	if m.state == stateCrashed {
		return // parks on reboot
	}
	m.park()
	if m.radio.Mode() == radio.ModeRx {
		m.radio.PowerDown()
	}
}

// stopTrain ends the strobe train and closes its listen windows (crash,
// park). A strobe or SSR still clocking into the FIFO never flies: the
// radio powers down as its clock-in ends.
func (m *LPLNode) stopTrain() {
	m.radio.CancelFire()
	m.gap.close(m.k)
	m.ssrWait.close(m.k)
	m.endOp()
}

// Send implements Mac: a queued frame launches a strobe train if none is
// running. The payload is copied into a recycled buffer.
//
//hot:path
func (m *LPLNode) Send(payload []byte) bool {
	if !m.nodeCore.Send(payload) {
		return false
	}
	m.startDataOp()
	return true
}

// --- frame dispatch ------------------------------------------------------

//hot:path
func (m *LPLNode) onFrame(f packet.Frame) {
	if f.Dest != m.cfg.Plan.NodeAddr(m.cfg.NodeID) {
		return
	}
	switch {
	case packet.IsStrobeAck(f.Payload):
		m.handleStrobeAck()
	case packet.IsAck(f.Payload):
		m.handleAck()
	}
}

// --- strobe train --------------------------------------------------------

// startJoinOp launches the association handshake's strobe train.
func (m *LPLNode) startJoinOp() {
	if m.state != stateRequesting || m.opActive {
		return
	}
	m.opActive = true
	m.op = lplOpSSR
	m.strobeCount = 0
	m.strobeStep()
}

// startDataOp launches a data delivery strobe train when the node is
// joined, has a frame queued and runs no train yet.
func (m *LPLNode) startDataOp() {
	if m.state != stateJoined || m.opActive || m.queue.Len() == 0 {
		return
	}
	if m.skipStretched("op=%d") {
		// Duty-cycle stretch: check back one sampling period later.
		m.retryAfter(m.checkInterval, lplOpData)
		return
	}
	m.opActive = true
	m.op = lplOpData
	m.strobeCount = 0
	m.strobeStep()
}

// retryAfter launches a fresh train for op after delay, unless a crash
// intervenes; lplOpNone resumes the deferred train instead.
func (m *LPLNode) retryAfter(delay sim.Time, op lplOp) {
	m.k.ScheduleArgAt(m.k.Now()+delay, m.onRetry, m.gen<<2|uint64(op))
}

// retryDue runs a delayed restart.
//
//hot:path
func (m *LPLNode) retryDue(k *sim.Kernel) {
	if k.Arg()>>2 != m.gen {
		return // armed before a crash
	}
	switch lplOp(k.Arg() & 3) {
	case lplOpNone:
		m.strobeStep()
	case lplOpSSR:
		m.startJoinOp()
	case lplOpData:
		m.startDataOp()
	}
}

// strobeStep sends the next strobe of the train, or gives up when the
// budget (one full check interval) is exhausted.
func (m *LPLNode) strobeStep() {
	if !m.opActive || m.state == stateParked || m.state == stateCrashed {
		return
	}
	if m.strobeCount >= m.maxStrobes {
		// A whole sampling period went unanswered: the receiver is deaf
		// (jammed, crashed, out of range). Back off a randomised interval
		// and retry.
		m.stats.StrobeFails++
		op := m.op
		m.endOp()
		m.retryAfter(m.checkInterval+sim.Time(m.k.Rand().Int63n(int64(m.checkInterval))), op)
		return
	}
	m.strobeCount++
	m.ctrlBuf = packet.Strobe{NodeID: m.cfg.NodeID}.AppendMarshal(m.ctrlBuf[:0])
	m.radio.LoadFire(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.strobeSent)
}

// onStrobeSent accounts a strobe once it has flown.
//
//hot:path
func (m *LPLNode) onStrobeSent() {
	if m.state == stateParked || m.state == stateCrashed || !m.opActive {
		m.radio.PowerDown()
		return
	}
	m.stats.StrobesSent++
	m.chargeControlTx(packet.StrobeBytes)
	// Listen briefly for the early ack that truncates the train.
	m.listenFor(&m.gap, m.strobeGap, m.onGapExpiry)
}

// onStrobeGapTimeout closes an unanswered listen gap.
//
//hot:path
func (m *LPLNode) onStrobeGapTimeout(*sim.Kernel) {
	if !m.gap.expire() {
		return
	}
	m.endWindow(&m.gap)
	if m.radio.ChannelBusy() {
		// The gap heard a foreign transaction (another node's train or
		// payload exchange): defer politely instead of strobing over it.
		// The pause does not consume the strobe budget.
		delay := lplDeferFloor + sim.Time(m.k.Rand().Int63n(int64(lplDeferSpan)))
		m.retryAfter(delay, lplOpNone)
		return
	}
	m.strobeStep()
}

// handleStrobeAck truncates the train: the receiver is awake and
// waiting.
func (m *LPLNode) handleStrobeAck() {
	if !m.gap.close(m.k) {
		return
	}
	m.endWindow(&m.gap)
	m.stats.EarlyAcks++
	m.burstLeft = lplWakeBurst - 1
	m.sendPayload()
}

// --- payload delivery ----------------------------------------------------

// sendPayload delivers the train's cargo into the receiver's open window.
func (m *LPLNode) sendPayload() {
	switch m.op {
	case lplOpSSR:
		m.sendSSR()
	case lplOpData:
		if !m.hasInFlight {
			if m.queue.Len() == 0 {
				m.endOp()
				return
			}
			m.launch()
		}
		m.radio.Load(m.cfg.Plan.BSData, m.idFrame(), m.dataLoaded)
	}
}

// sendSSR delivers the association request: a prep ISR, then the FIFO
// clock-in and burst.
func (m *LPLNode) sendSSR() {
	m.ssr, m.ssrGen = m.nextSSR(), m.gen
	m.sched.Interrupt("ssr-prep", m.cfg.Profile.Cost.SSRPrep, m.ssrPrepped)
}

// onSSRPrepped loads and fires the prepared association request.
//
//hot:path
func (m *LPLNode) onSSRPrepped() {
	if m.gen != m.ssrGen || !m.opActive {
		return
	}
	m.ctrlBuf = m.ssr.AppendMarshal(m.ctrlBuf[:0])
	m.radio.LoadFire(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.ssrSent)
}

// onSSRSent listens for the association ack once the request has flown.
//
//hot:path
func (m *LPLNode) onSSRSent() {
	if m.state == stateParked || m.state == stateCrashed {
		m.radio.PowerDown()
		return
	}
	m.ssrFlown()
	m.listenFor(&m.ssrWait, m.cfg.Profile.MAC.AckTimeout, m.onSSRExpiry)
}

// onDataLoaded fires the loaded payload.
//
//hot:path
func (m *LPLNode) onDataLoaded() {
	if m.state == stateParked || m.state == stateCrashed {
		m.radio.PowerDown()
		return
	}
	m.noteQueueDelay()
	m.radio.Fire(m.dataSent)
}

// onDataSent awaits the acknowledgement once the payload has flown.
//
//hot:path
func (m *LPLNode) onDataSent() {
	if m.state == stateParked || m.state == stateCrashed {
		m.radio.PowerDown()
		return
	}
	m.dataFlown(m.onAckExpiry)
}

// onSSRTimeout retries the association after a randomised backoff (the
// receiver woke but the handshake broke: collision, or membership full).
func (m *LPLNode) onSSRTimeout(*sim.Kernel) {
	if !m.ssrWait.expire() {
		return
	}
	m.endWindow(&m.ssrWait)
	m.endOp()
	m.retryAfter(m.checkInterval+sim.Time(m.k.Rand().Int63n(int64(m.checkInterval))), lplOpSSR)
}

// handleAck resolves whichever handshake is waiting: the association
// (while requesting) or a data frame.
func (m *LPLNode) handleAck() {
	if m.ssrWait.close(m.k) {
		m.endWindow(&m.ssrWait)
		m.endOp()
		m.join(-1)
		m.startDataOp()
		return
	}
	if !m.ackArrived() {
		return
	}
	if m.queue.Len() > 0 && m.burstLeft > 0 {
		// The receiver reopens its window after each ack: continue the
		// burst without a fresh strobe train.
		m.burstLeft--
		m.sendPayload()
		return
	}
	m.endOp()
	m.startDataOp()
}

// onAckTimeout treats the payload as lost (the wake window closed, or
// the frame collided) and retries through a fresh strobe train.
//
//hot:path
func (m *LPLNode) onAckTimeout(*sim.Kernel) {
	if !m.ackMissed() {
		return
	}
	m.endOp()
	if m.queue.Len() > 0 {
		// A randomised pause decorrelates the retry from whatever
		// transaction collided with the lost exchange.
		m.retryAfter(m.checkInterval/8+sim.Time(m.k.Rand().Int63n(int64(m.checkInterval/2))), lplOpData)
	}
}

func (m *LPLNode) endOp() {
	m.opActive = false
	m.op = lplOpNone
	m.strobeCount = 0
}

// AuditProtocol checks the preamble-sampling consistency laws: every
// early ack truncated a train that strobed at least once, every payload
// burst rode a wake that an early ack opened (bounded by the per-wake
// burst budget), and every exhausted train consumed a full strobe budget
// (all with one epoch-straddle credit). The payload law's credit is one
// whole wake: a wake whose early ack came before ResetAccounting may
// carry its full burst after it.
func (m *LPLNode) AuditProtocol() []string {
	var v []string
	s := m.stats
	if s.EarlyAcks > s.StrobesSent+1 {
		v = append(v, fmt.Sprintf("EarlyAcks %d exceed StrobesSent %d (+1 straddle credit)",
			s.EarlyAcks, s.StrobesSent))
	}
	if payloads := s.DataSent + s.SSRSent; payloads > lplWakeBurst*(s.EarlyAcks+1) {
		v = append(v, fmt.Sprintf("%d payloads exceed %d early acks × burst %d (+1 straddle wake)",
			payloads, s.EarlyAcks, lplWakeBurst))
	}
	if s.StrobeFails*uint64(m.maxStrobes) > s.StrobesSent+uint64(m.maxStrobes) {
		v = append(v, fmt.Sprintf("StrobeFails %d imply more than the %d strobes sent (budget %d)",
			s.StrobeFails, s.StrobesSent, m.maxStrobes))
	}
	if m.gap.open && !m.opActive {
		v = append(v, "strobe gap open with no active train")
	}
	return v
}

// --- base station ---------------------------------------------------------

// LPLBS is the duty-cycled receiver: it probes the channel every check
// interval, answers a caught strobe with an early ack, and services the
// opened wake (association or data, with per-ack window reopening for
// bursts) over the shared data sink.
type LPLBS struct {
	bsCore

	checkInterval sim.Time
	startAt       sim.Time

	waking       bool     // a probe/wake owns the radio
	acking       bool     // early ack committed: turnaround/transmit in progress
	payload      rxWindow // receive window for the sender's cargo
	probeOpenAt  sim.Time
	probeTimeout sim.EventID

	// Steady-state steps, each a handler bound once in NewLPLBS. One probe
	// is armed at a time, so its state lives in fields.
	probeN          uint64
	onProbe         sim.Handler
	onProbeExpiry   sim.Handler
	onPayloadExpiry sim.Handler
	slotAssigned    func()
}

// NewLPLBS wires an LPL base station. A zero CheckInterval selects
// DefaultLPLCheckInterval; a zero MaxSlots admits MaxDynamicSlots
// members.
func NewLPLBS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *LPLBS {
	bs := &LPLBS{checkInterval: lplCheckInterval(cfg.Params)}
	bs.init(k, cfg, sched, r, ledger, tracer, "member", bs.ackMayFly, bs.ackFlown)
	bs.onProbe = bs.probe
	bs.onProbeExpiry = bs.onProbeIdle
	bs.onPayloadExpiry = bs.onPayloadTimeout
	bs.slotAssigned = bs.assignMember
	r.SetReceiveHandler(bs.onFrame)
	return bs
}

// CycleLength implements BSMAC: the regulation period is the sampling
// interval.
func (bs *LPLBS) CycleLength() sim.Time { return bs.checkInterval }

// Start implements BSMAC: the sampling schedule is anchored at the start
// instant, probe n firing at n check intervals, independent of how long
// individual wakes run.
func (bs *LPLBS) Start() {
	bs.start()
	bs.radio.SetRxAddresses(bs.cfg.Plan.BSData, bs.cfg.Plan.BSCtrl)
	bs.startAt = bs.k.Now()
	bs.scheduleProbe()
}

// scheduleProbe arms the next probe: probe n fires n check intervals
// after the start.
func (bs *LPLBS) scheduleProbe() {
	bs.probeN++
	bs.k.ScheduleAt(bs.startAt+sim.Time(bs.probeN)*bs.checkInterval, bs.onProbe)
}

// probe opens one sampling window (skipped when a wake is still being
// serviced across the probe instant). Each probe instant also ages the
// members' silence counters for reclamation.
//
//hot:path
func (bs *LPLBS) probe(*sim.Kernel) {
	bs.scheduleProbe()
	bs.reclaimSilent()
	if bs.waking {
		return
	}
	bs.stats.Probes++
	bs.waking = true
	bs.probeOpenAt = bs.k.Now()
	bs.listen()
	bs.probeTimeout = bs.k.Schedule(lplProbeWindow(bs.cfg.Profile), bs.onProbeExpiry)
}

// lplProbeWindow reports how long a probe on profile p listens: one full
// strobe spacing once the receiver has settled.
func lplProbeWindow(p *platform.Profile) sim.Time { return p.Radio.RxSettle + lplMaxStrobeSpacing }

// onProbeIdle closes a silent sampling window: its receiver-on time is
// the protocol's idle-listening cost.
//
//hot:path
func (bs *LPLBS) onProbeIdle(*sim.Kernel) {
	if !bs.waking || bs.payload.open {
		return
	}
	bs.waking = false
	bs.radio.PowerDown()
	idle := bs.k.Now() - bs.probeOpenAt
	bs.ledger.AttributeLoss(energy.LossIdleListening,
		bs.radio.RxPowerW()*idle.Seconds())
}

// --- wake servicing ------------------------------------------------------

//hot:path
func (bs *LPLBS) onFrame(f packet.Frame) {
	switch f.Dest {
	case bs.cfg.Plan.BSCtrl:
		if s, err := packet.UnmarshalStrobe(f.Payload); err == nil {
			bs.handleStrobe(s)
		} else if ssr, err := packet.UnmarshalSSR(f.Payload); err == nil {
			bs.handleSSR(ssr)
		} else if rel, err := packet.UnmarshalRelease(f.Payload); err == nil {
			bs.handleRelease(rel)
		}
	case bs.cfg.Plan.BSData:
		bs.handleData(f.Payload)
	}
}

// handleStrobe answers the first strobe a probe window catches with the
// early ack that truncates the sender's train.
func (bs *LPLBS) handleStrobe(s packet.Strobe) {
	bs.stats.StrobesHeard++
	if !bs.waking || bs.acking || bs.payload.open {
		// A second sender's strobe during an already-open wake — or one
		// caught in the ack-turnaround gap, before the radio commits to
		// transmit: ignored; its train retries at the next probe.
		return
	}
	bs.acking = true
	bs.k.Cancel(bs.probeTimeout)
	bs.owe(owedAck{kind: ackEarly, rec: RxRecord{Node: s.NodeID}}, "bs-strobe-turnaround")
}

// ackMayFly drops an early ack whose wake closed, or found a payload
// window already open, during the turnaround.
func (bs *LPLBS) ackMayFly(a owedAck) bool {
	return a.kind != ackEarly || (bs.waking && !bs.payload.open)
}

// ackFlown ends the wake after the association ack, and otherwise
// reopens the receive window for the sender's cargo.
func (bs *LPLBS) ackFlown(a owedAck) {
	if a.kind == ackJoin {
		bs.endWake()
		return
	}
	bs.openPayloadWindow()
}

// openPayloadWindow holds the receiver on for the sender's cargo.
func (bs *LPLBS) openPayloadWindow() {
	bs.acking = false
	bs.payload.open = true
	bs.listen()
	bs.payload.timeout = bs.k.Schedule(lplPayloadWait, bs.onPayloadExpiry)
}

// onPayloadTimeout ends a wake whose sender went quiet.
//
//hot:path
func (bs *LPLBS) onPayloadTimeout(*sim.Kernel) {
	if bs.payload.expire() {
		bs.endWake()
	}
}

func (bs *LPLBS) endWake() {
	bs.acking = false
	bs.payload.open = false
	bs.waking = false
	if bs.radio.Mode() == radio.ModeRx {
		bs.radio.PowerDown()
	}
}

// handleSSR services an association handshake inside the wake: admit (or
// re-admit) the node and ack, or silently reject at the membership cap.
// A full task queue drops the assignment; the wake then ends as a
// rejection does, and the node's SSR timeout retries.
func (bs *LPLBS) handleSSR(ssr packet.SSR) {
	if !bs.payload.open {
		return
	}
	// The window stays open, without its timeout, until the
	// association ack has flown.
	bs.k.Cancel(bs.payload.timeout)
	if !bs.requestSlot(ssr.NodeID, bs.slotAssigned) {
		bs.endWake()
	}
}

// assignMember answers an association request once its task ran: the
// ack goes straight into the FIFO, with no turnaround ISR.
func (bs *LPLBS) assignMember() {
	node, idx, _, ok := bs.admitNext()
	if !ok {
		bs.endWake()
		return
	}
	bs.granted(node, idx)
	bs.loadAck(owedAck{kind: ackJoin, rec: RxRecord{Node: node}})
}

// handleRelease retires a membership voluntarily (accepted for protocol
// symmetry; the LPL node's park is silent and relies on silence reclaim).
func (bs *LPLBS) handleRelease(rel packet.Release) { bs.retire(rel.NodeID) }

// handleData accepts a member's payload (sender-ID header attribution),
// acks it, and reopens the window for a burst continuation.
func (bs *LPLBS) handleData(payload []byte) {
	if !bs.payload.open {
		return
	}
	node, payload, ok := bs.sender(payload)
	if !ok {
		return
	}
	bs.payload.close(bs.k)
	// The radio is committed to the data ack from here until the window
	// reopens: a strobe caught in the gap must not start a second
	// transmit (see handleStrobe's guard).
	bs.acking = true
	bs.accept(node, payload)
	bs.oweData(node, payload)
}
