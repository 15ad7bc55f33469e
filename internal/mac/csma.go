package mac

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
	"repro/internal/trace"
)

// Slotted CSMA/CA: the base station keeps the beacon cadence of the
// static TDMA (fixed cycle, join grants advertised in beacons), but the
// region between beacons is a contention-access period instead of a slot
// schedule. A node with a frame pending draws a random backoff in unit
// periods, assesses the channel (receiver on for a short energy-detect
// window), and transmits when it is clear; a busy verdict doubles the
// backoff range (binary exponential backoff) until the attempt gives up
// for the cycle. Because any member may transmit at any offset, data
// frames carry a one-byte sender-ID header in place of the TDMA's
// slot-timing attribution.
const (
	// defaultMinBE/defaultMaxBE/defaultMaxBackoffs are the backoff
	// defaults (802.15.4's macMinBE/macMaxBE/macMaxCSMABackoffs shape).
	defaultMinBE       = 3
	defaultMaxBE       = 5
	defaultMaxBackoffs = 4
	// csmaUnitBackoff is one backoff period: a draw of n waits n of
	// these before the channel assessment.
	csmaUnitBackoff = 320 * sim.Microsecond
	// csmaCCADuration is the energy-detect window the receiver stays on
	// after settling to judge the channel.
	csmaCCADuration = 128 * sim.Microsecond
	// DefaultCSMACycle is the beacon period when the configuration does
	// not name one (the same ballpark as the paper's TDMA cycles).
	DefaultCSMACycle = 30 * sim.Millisecond
)

// csmaOp names the frame a contention attempt is trying to put on air.
type csmaOp int

const (
	csmaOpNone csmaOp = iota
	csmaOpSSR
	csmaOpData
	csmaOpRelease
)

// CSMANode is the sensor-node side of the slotted CSMA/CA protocol.
type CSMANode struct {
	k      *sim.Kernel
	cfg    NodeConfig
	name   string
	sched  *tinyos.Sched
	radio  *radio.Radio
	ledger *energy.Ledger
	tracer *trace.Recorder

	minBE       int
	maxBE       int
	maxBackoffs int

	state    nodeState
	t0       sim.Time // air-start instant of the current cycle's beacon
	cycle    sim.Time // cycle length from the latest beacon
	member   int      // association index granted by the base station
	onJoined []func()
	gen      uint64

	joinedSince sim.Time
	joinedAccum sim.Time
	joinedEver  bool
	rejoinArmed bool
	rejoinFrom  sim.Time

	txQueue
	loading bool
	loaded  bool
	op      csmaOp
	firing  csmaOp // the op of the frame on the air
	// dataBuf/ctrlBuf are marshal scratch: the sender-ID header plus
	// payload, and the control frames (SSR, Release).
	dataBuf []byte
	ctrlBuf []byte

	// Contention attempt state (one attempt machine per node).
	attemptActive bool
	nb            int // busy verdicts consumed by this attempt
	be            int // current backoff exponent

	missed        int
	windowOpenAt  sim.Time
	windowTimeout sim.EventID
	windowActive  bool
	ackOpenAt     sim.Time
	ackTimeout    sim.EventID
	ackWaiting    bool
	joinListenAt  sim.Time
	ssrNonce      uint16
	// beacon is the last parsed beacon; its Entries slice is reused.
	beacon packet.Beacon

	// Steady-state steps, each a handler bound once in NewCSMANode. Crash
	// cancels the window and ack timeouts; the other kernel-timed steps
	// file their generation (and a window's stride) by event ID.
	windowOpens    sim.Pending[windowArm]
	ccaSteps       sim.Pending[uint64]
	onWindowOpen   sim.Handler
	onWindowExpiry sim.Handler
	onBackoffDue   sim.Handler
	onCCADue       sim.Handler
	onAckExpiry    sim.Handler
	beaconParsed   func()
	frameLoaded    func()
	frameSent      func()

	stretchEvery   int
	stretchCount   uint64
	beaconOnly     bool
	releasePending bool

	stats     Stats
	carrySent uint64

	controlRxTime sim.Time
	controlTxTime sim.Time
	joinIdleTime  sim.Time
}

// NewCSMANode wires a CSMA/CA node MAC over its radio and OS. Zero
// Params fields select the documented defaults.
func NewCSMANode(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *trace.Recorder) *CSMANode {
	if cfg.TxQueueCap <= 0 {
		cfg.TxQueueCap = DefaultTxQueueCap
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	if err := validateCSMAParams(cfg.Params); err != nil {
		panic(err)
	}
	m := &CSMANode{
		k:           k,
		cfg:         cfg,
		name:        r.Name(),
		sched:       sched,
		radio:       r,
		ledger:      ledger,
		tracer:      tracer,
		member:      -1,
		minBE:       cfg.Params.MinBE,
		maxBE:       cfg.Params.MaxBE,
		maxBackoffs: cfg.Params.MaxBackoffs,
	}
	if m.minBE == 0 {
		m.minBE = defaultMinBE
	}
	if m.maxBE == 0 {
		m.maxBE = defaultMaxBE
	}
	if m.maxBackoffs == 0 {
		m.maxBackoffs = defaultMaxBackoffs
	}
	m.onWindowOpen = m.windowOpened
	m.onWindowExpiry = m.onWindowTimeout
	m.onBackoffDue = m.ccaStart
	m.onCCADue = m.ccaSample
	m.onAckExpiry = m.onAckTimeout
	m.beaconParsed = m.afterBeacon
	m.frameLoaded = m.onFrameLoaded
	m.frameSent = m.onFrameSent
	r.SetReceiveHandler(m.onFrame)
	return m
}

// Start implements Mac: listen continuously for a first beacon.
func (m *CSMANode) Start() {
	m.state = stateSearching
	m.radio.SetRxAddresses(m.cfg.Plan.Beacon)
	m.radio.StartRx()
	m.joinListenAt = m.k.Now()
	if m.joinedEver && !m.rejoinArmed {
		m.rejoinArmed = true
		m.rejoinFrom = m.k.Now()
	}
}

// OnJoined implements Mac.
func (m *CSMANode) OnJoined(fn func()) { m.onJoined = append(m.onJoined, fn) }

// Joined implements Mac.
func (m *CSMANode) Joined() bool { return m.state == stateJoined }

// Slot implements Mac: the association index the base station granted
// (there is no slot schedule; the index only names the membership).
func (m *CSMANode) Slot() int { return m.member }

// CycleLength implements Mac.
func (m *CSMANode) CycleLength() sim.Time { return m.cycle }

// Stats implements Mac.
func (m *CSMANode) Stats() Stats { return m.stats }

// ControlRxTime reports receiver-on time spent in control windows
// (beacon listening, CCA windows, ack listening).
func (m *CSMANode) ControlRxTime() sim.Time { return m.controlRxTime }

// ControlTxTime reports transmit time spent on control frames.
func (m *CSMANode) ControlTxTime() sim.Time { return m.controlTxTime }

// JoinIdleTime reports the continuous-listen time burned while searching
// for the network.
func (m *CSMANode) JoinIdleTime() sim.Time { return m.joinIdleTime }

// Generation reports the crash generation counter.
func (m *CSMANode) Generation() uint64 { return m.gen }

// ResetAccounting zeroes statistics and loss accumulators (post-warmup).
func (m *CSMANode) ResetAccounting() {
	m.stats = Stats{}
	m.carrySent = 0
	if m.ackWaiting {
		m.carrySent = 1
	}
	m.controlRxTime = 0
	m.controlTxTime = 0
	m.joinIdleTime = 0
	m.joinedAccum = 0
	if m.state == stateJoined {
		m.joinedSince = m.k.Now()
	}
}

// JoinedTime reports cumulative association time since the last reset.
func (m *CSMANode) JoinedTime() sim.Time {
	t := m.joinedAccum
	if m.state == stateJoined {
		t += m.k.Now() - m.joinedSince
	}
	return t
}

func (m *CSMANode) noteLeftSlot() {
	if m.state == stateJoined {
		m.joinedAccum += m.k.Now() - m.joinedSince
	}
}

// Crash implements NodeMAC (see NodeMac.Crash for the model).
func (m *CSMANode) Crash() {
	m.gen++
	if m.windowActive {
		m.k.Cancel(m.windowTimeout)
		m.windowActive = false
	}
	m.closeAckWindow()
	m.noteLeftSlot()
	m.state = stateCrashed
	m.member = -1
	m.missed = 0
	m.queue.Reset()
	m.loading = false
	m.loaded = false
	m.dropInFlight()
	m.op = csmaOpNone
	m.attemptActive = false
	m.releasePending = false
	m.tracer.Record(m.k.Now(), m.name, trace.KindCrash, "")
}

// SetSlotStretch implements NodeMAC: every k-th contention opportunity
// is slept through.
func (m *CSMANode) SetSlotStretch(k int) {
	if k < 2 {
		m.stretchEvery = 0
		return
	}
	m.stretchEvery = k
}

// EnterBeaconOnly implements NodeMAC: release the membership (via a
// contention-access Release frame), then keep only beacon sync alive.
func (m *CSMANode) EnterBeaconOnly() {
	if m.beaconOnly {
		return
	}
	m.beaconOnly = true
	switch m.state {
	case stateJoined:
		m.releasePending = true
	case stateRequesting:
		m.park()
	case stateSearching, stateCrashed, stateParked:
	}
}

func (m *CSMANode) closeAckWindow() {
	if !m.ackWaiting {
		return
	}
	m.ackWaiting = false
	m.k.Cancel(m.ackTimeout)
	m.stats.Abandoned++
}

func (m *CSMANode) park() {
	m.closeAckWindow()
	m.noteLeftSlot()
	m.state = stateParked
	m.member = -1
	m.releasePending = false
	m.queue.Reset()
	m.loading = false
	m.loaded = false
	m.dropInFlight()
	m.op = csmaOpNone
	m.attemptActive = false
	m.tracer.Record(m.k.Now(), m.name, trace.KindParked, "")
}

// Send implements Mac. The frame is transmitted by a contention attempt
// in the current or a following beacon cycle. The payload is copied
// into a recycled buffer.
//
//hot:path
func (m *CSMANode) Send(payload []byte) bool {
	if m.queue.Len() >= m.cfg.TxQueueCap {
		m.stats.QueueDrops++
		return false
	}
	m.enqueue(payload, m.k.Now())
	return true
}

// local applies the node's oscillator error to a self-timed interval.
func (m *CSMANode) local(d sim.Time) sim.Time {
	if approx.Unset(m.cfg.ClockDriftPPM) {
		return d
	}
	return sim.Time(float64(d) * (1 + m.cfg.ClockDriftPPM*1e-6))
}

// maxBeaconPayload mirrors the static-TDMA beacon sizing: base payload
// plus a bounded number of join-grant entries.
func (m *CSMANode) maxBeaconPayload() int {
	return m.cfg.Profile.MAC.BeaconBasePayloadBytes +
		m.cfg.Profile.MAC.GrantEntryBytes*2
}

// nextWindowOpen reports when this node expects to open its next beacon
// listen window — the hard deadline every contention attempt must clear.
func (m *CSMANode) nextWindowOpen() sim.Time {
	p := m.cfg.Profile
	return m.t0 + m.local(m.cycle-p.MAC.StaticGuard-p.Radio.RxSettle)
}

// --- frame dispatch ------------------------------------------------------

//hot:path
func (m *CSMANode) onFrame(f packet.Frame) {
	switch {
	case f.Dest == m.cfg.Plan.Beacon:
		var ok bool
		m.beacon, ok = packet.ParseBeacon(f.Payload, m.beacon.Entries[:0])
		if ok {
			m.handleBeacon(m.beacon, len(f.Payload))
		}
	case f.Dest == m.cfg.Plan.NodeAddr(m.cfg.NodeID) && packet.IsAck(f.Payload):
		m.handleAck()
	}
}

// handleBeacon resynchronises and scans the membership grants.
func (m *CSMANode) handleBeacon(b packet.Beacon, payloadLen int) {
	now := m.k.Now()
	frameEnd := m.radio.LastRxFrameEnd()
	airStart := frameEnd - m.cfg.Profile.Radio.Airtime(payloadLen)

	m.radio.PowerDown()
	if m.windowActive {
		m.k.Cancel(m.windowTimeout)
		m.windowActive = false
		m.accountControlRx(now - m.windowOpenAt)
	} else if m.state == stateSearching {
		idle := now - m.joinListenAt
		m.joinIdleTime += idle
		m.ledger.AttributeLoss(energy.LossIdleListening,
			m.radio.RxPowerW()*idle.Seconds())
	}

	m.stats.BeaconsHeard++
	m.missed = 0
	m.t0 = airStart
	m.cycle = sim.Time(b.CycleMicros) * sim.Microsecond
	if m.cycle <= 0 {
		return // malformed beacon; wait for the next one
	}
	metrics.Record2(m.tracer, now, m.name, trace.KindBeaconRx, "seq=%d cycle=%v", b.Seq, m.cycle)

	if m.state == stateSearching {
		m.state = stateRequesting
	}
	if m.beaconOnly && m.state == stateRequesting {
		m.park()
	}

	for _, e := range b.Entries {
		if e.NodeID != m.cfg.NodeID {
			continue
		}
		if m.state == stateParked {
			break // stale grant after our release
		}
		if m.state != stateJoined {
			m.member = int(e.Slot)
			m.state = stateJoined
			m.joinedSince = now
			if m.rejoinArmed {
				m.tracer.Observe(m.name, trace.HistRejoin, now-m.rejoinFrom)
				m.rejoinArmed = false
			}
			m.joinedEver = true
			metrics.Record1(m.tracer, now, m.name, trace.KindJoined, "slot=%d", m.member)
			for _, fn := range m.onJoined {
				fn()
			}
		} else {
			m.member = int(e.Slot)
		}
		break
	}

	m.sched.Interrupt("beacon-parse", m.cfg.Profile.Cost.BeaconParseStatic, m.beaconParsed)
}

// afterBeacon launches this cycle's contention attempt once parsing is
// done: the contention-access period runs from here to the next window.
//
//hot:path
func (m *CSMANode) afterBeacon() {
	m.scheduleNextWindow()
	switch m.state {
	case stateRequesting:
		m.beginAttempt(csmaOpSSR)
	case stateJoined:
		if m.releasePending {
			m.beginAttempt(csmaOpRelease)
			return
		}
		if m.stretchEvery >= 2 {
			m.stretchCount++
			if m.stretchCount%uint64(m.stretchEvery) == 0 {
				m.stats.SlotsSkipped++
				metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindSlotSkip, "cycle=%d", m.stretchCount)
				return
			}
		}
		m.beginAttempt(csmaOpData)
	}
}

// windowStride mirrors the TDMA doze ratio for parked nodes.
func (m *CSMANode) windowStride() sim.Time {
	if m.state == stateParked {
		return parkBeaconEvery
	}
	return 1
}

// scheduleNextWindow arms the receiver for the next expected beacon.
func (m *CSMANode) scheduleNextWindow() {
	p := &m.cfg.Profile
	stride := m.windowStride()
	openAt := m.t0 + m.local(stride*m.cycle-p.MAC.StaticGuard-p.Radio.RxSettle)
	now := m.k.Now()
	if openAt <= now {
		openAt = now
	}
	m.windowOpens.ScheduleAt(m.k, openAt, m.onWindowOpen, windowArm{gen: m.gen, stride: stride})
}

// windowOpened turns the receiver on for an expected beacon and arms the
// window's timeout.
//
//hot:path
func (m *CSMANode) windowOpened(k *sim.Kernel) {
	a := m.windowOpens.Take(k)
	if m.gen != a.gen {
		return // armed before a crash
	}
	if m.windowActive || m.state == stateSearching {
		return
	}
	if m.radio.Mode() == radio.ModeTx {
		// A late contention burst is still draining; its completion
		// handler powers the radio down, and the beacon is lost this
		// cycle (the budget margins make this rare).
		m.onWindowLost()
		return
	}
	p := &m.cfg.Profile
	m.windowActive = true
	m.windowOpenAt = k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.Beacon)
	m.radio.StartRx()
	deadline := m.t0 + m.local(a.stride*m.cycle) + p.MAC.StaticGuard +
		p.Radio.Airtime(m.maxBeaconPayload()) +
		p.Radio.RxClockOut(m.maxBeaconPayload()) + 500*sim.Microsecond
	if deadline < k.Now() {
		deadline = k.Now()
	}
	m.windowTimeout = k.ScheduleAt(deadline, m.onWindowExpiry)
}

// onWindowTimeout handles a silent beacon window.
//
//hot:path
func (m *CSMANode) onWindowTimeout(*sim.Kernel) {
	if !m.windowActive {
		return
	}
	m.windowActive = false
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.windowOpenAt)
	m.onWindowLost()
}

// onWindowLost dead-reckons past a beacon window that stayed silent or
// could not open.
func (m *CSMANode) onWindowLost() {
	m.stats.BeaconsMissed++
	m.missed++
	if m.missed >= missedBeaconRejoinThreshold {
		m.rejoin()
		return
	}
	m.t0 += m.local(m.windowStride() * m.cycle)
	m.scheduleNextWindow()
}

// rejoin abandons the membership and restarts the join procedure.
func (m *CSMANode) rejoin() {
	m.stats.Rejoins++
	m.closeAckWindow()
	m.noteLeftSlot()
	if !m.rejoinArmed {
		m.rejoinArmed = true
		m.rejoinFrom = m.k.Now()
	}
	m.state = stateSearching
	m.member = -1
	m.missed = 0
	m.loaded = false
	m.dropInFlight()
	m.op = csmaOpNone
	m.attemptActive = false
	m.radio.SetRxAddresses(m.cfg.Plan.Beacon)
	m.radio.StartRx()
	m.joinListenAt = m.k.Now()
}

// --- contention attempt machine ------------------------------------------

// beginAttempt loads op's frame into the FIFO (if not already resident
// from a deferred attempt) and starts the backoff/CCA loop. One attempt
// runs per beacon cycle; an attempt that runs out of time or backoffs
// leaves the frame loaded for the next cycle.
func (m *CSMANode) beginAttempt(op csmaOp) {
	if m.attemptActive || m.loading || m.ackWaiting {
		return
	}
	if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
		return
	}
	if m.op != csmaOpNone && m.op != op {
		// The FIFO holds a stale frame of another kind (a data frame
		// loaded before EnterBeaconOnly, say): the release path owns the
		// radio now and the unsent frame is discarded.
		m.loaded = false
		m.dropInFlight()
		m.op = csmaOpNone
	}
	p := &m.cfg.Profile
	if !m.loaded {
		switch op {
		case csmaOpData:
			if m.queue.Len() == 0 {
				return
			}
			item := m.queue.Peek()
			loadDur := p.Radio.TxClockIn(p.Radio.AddressBytes + packet.DataHeaderBytes + len(item.payload))
			if !m.attemptFits(m.k.Now()+loadDur, m.opTailNeed(op, len(item.payload))) {
				return // no room left this cycle; the frame stays queued
			}
			m.launch()
			m.op = csmaOpData
			m.loading = true
			m.dataBuf = append(m.dataBuf[:0], m.cfg.NodeID)
			m.dataBuf = append(m.dataBuf, item.payload...)
			m.radio.Load(m.cfg.Plan.BSData, m.dataBuf, m.frameLoaded)
		case csmaOpSSR:
			m.ssrNonce++
			ssr := packet.SSR{NodeID: m.cfg.NodeID, Nonce: m.ssrNonce}
			m.op = csmaOpSSR
			m.loading = true
			//lint:allow hotalloc association is a join transient, not a per-frame step
			m.sched.Interrupt("ssr-prep", p.Cost.SSRPrep, func() {
				if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
					m.loading = false
					m.op = csmaOpNone
					return
				}
				m.ctrlBuf = ssr.AppendMarshal(m.ctrlBuf[:0])
				m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.frameLoaded)
			})
		case csmaOpRelease:
			m.op = csmaOpRelease
			m.loading = true
			m.ctrlBuf = packet.Release{NodeID: m.cfg.NodeID}.AppendMarshal(m.ctrlBuf[:0])
			m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.frameLoaded)
		}
		return
	}
	m.startBackoff()
}

// onFrameLoaded contends for the channel once the frame sits in the
// radio FIFO.
//
//hot:path
func (m *CSMANode) onFrameLoaded() {
	m.loading = false
	m.loaded = true
	m.radio.PowerDown()
	m.startBackoff()
}

// opTailNeed reports how long an attempt needs after its CCA clears:
// settle, burst, and (for data) the acknowledgement window.
func (m *CSMANode) opTailNeed(op csmaOp, payloadLen int) sim.Time {
	p := m.cfg.Profile
	switch op {
	case csmaOpData:
		return p.Radio.TxSettle + p.Radio.Airtime(packet.DataHeaderBytes+payloadLen) +
			p.MAC.AckTimeout + 300*sim.Microsecond
	case csmaOpSSR:
		return p.Radio.TxSettle + p.Radio.Airtime(packet.SSRBytes) + 300*sim.Microsecond
	default:
		return p.Radio.TxSettle + p.Radio.Airtime(packet.ReleaseBytes) + 300*sim.Microsecond
	}
}

// attemptFits reports whether an attempt whose CCA could start at
// earliest can still finish tail before the next beacon window opens.
func (m *CSMANode) attemptFits(earliest sim.Time, tail sim.Time) bool {
	ccaNeed := m.cfg.Profile.Radio.RxSettle + csmaCCADuration
	return earliest+ccaNeed+tail < m.nextWindowOpen()
}

// startBackoff opens a fresh BEB sequence for the loaded frame.
func (m *CSMANode) startBackoff() {
	if m.attemptActive || !m.loaded || m.state == stateCrashed || m.state == stateParked {
		return
	}
	m.attemptActive = true
	m.nb = 0
	m.be = m.minBE
	m.scheduleBackoffStep()
}

// scheduleBackoffStep draws the random wait and arms the CCA.
func (m *CSMANode) scheduleBackoffStep() {
	draw := m.k.Rand().Int63n(int64(1) << uint(m.be))
	at := m.k.Now() + sim.Time(draw)*csmaUnitBackoff
	tail := m.opTailNeed(m.op, len(m.inFlight.payload))
	if !m.attemptFits(at, tail) {
		// Out of contention room this cycle; the loaded frame waits for
		// the next beacon. Not a channel failure, so no counter moves.
		m.attemptActive = false
		return
	}
	m.ccaSteps.ScheduleAt(m.k, at, m.onBackoffDue, m.gen)
}

// ccaStart turns the receiver on for the clear-channel assessment once
// the backoff wait has run out.
//
//hot:path
func (m *CSMANode) ccaStart(k *sim.Kernel) {
	if gen := m.ccaSteps.Take(k); m.gen != gen {
		return // armed before a crash
	}
	if !m.attemptActive || m.state == stateCrashed || m.state == stateParked {
		m.attemptActive = false
		return
	}
	if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
		m.attemptActive = false // radio owned by another window; retry next cycle
		return
	}
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	m.ccaSteps.Schedule(m.k, m.cfg.Profile.Radio.RxSettle+csmaCCADuration, m.onCCADue, m.gen)
}

// ccaSample reads the energy-detect verdict at the end of the window.
//
//hot:path
func (m *CSMANode) ccaSample(k *sim.Kernel) {
	if gen := m.ccaSteps.Take(k); m.gen != gen {
		return // armed before a crash
	}
	if !m.attemptActive {
		return
	}
	if m.radio.Mode() != radio.ModeRx {
		// A crash/reset path powered the radio down mid-window.
		m.attemptActive = false
		return
	}
	busy := m.radio.ChannelBusy()
	m.radio.PowerDown()
	m.accountControlRx(m.cfg.Profile.Radio.RxSettle + csmaCCADuration)
	m.stats.CCAAttempts++
	if busy {
		m.stats.CCABusy++
		m.nb++
		if m.nb > m.maxBackoffs {
			// Attempt exhausted: the frame stays loaded and recontends
			// after the next beacon.
			m.stats.CCAFails++
			m.attemptActive = false
			return
		}
		if m.be < m.maxBE {
			m.be++
		}
		m.scheduleBackoffStep()
		return
	}
	m.transmit()
}

// transmit fires the loaded frame the instant its CCA cleared.
func (m *CSMANode) transmit() {
	m.attemptActive = false
	m.loaded = false
	m.firing = m.op
	if m.firing == csmaOpData && m.hasInFlight {
		lat := m.k.Now() - m.inFlight.enqueuedAt
		m.stats.addLatency(lat)
		m.tracer.Observe(m.name, trace.HistSlotWait, lat)
	}
	m.radio.Fire(m.frameSent)
}

// onFrameSent settles a contention burst once it has flown.
//
//hot:path
func (m *CSMANode) onFrameSent() {
	if m.state == stateCrashed {
		return
	}
	p := &m.cfg.Profile
	switch m.firing {
	case csmaOpData:
		m.op = csmaOpNone
		if m.state == stateParked {
			m.radio.PowerDown()
			return
		}
		m.stats.DataSent++
		metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindDataTx, "len=%d",
			packet.DataHeaderBytes+len(m.inFlight.payload))
		m.openAckWindow()
	case csmaOpSSR:
		m.op = csmaOpNone
		m.stats.SSRSent++
		txDur := p.Radio.TxSettle + p.Radio.Airtime(packet.SSRBytes)
		m.controlTxTime += txDur
		m.ledger.AttributeLoss(energy.LossControl, m.radio.TxPowerW()*txDur.Seconds())
		metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindSSRTx, "nonce=%d", m.ssrNonce)
		m.radio.PowerDown()
	case csmaOpRelease:
		m.op = csmaOpNone
		m.stats.ReleasesSent++
		txDur := p.Radio.TxSettle + p.Radio.Airtime(packet.ReleaseBytes)
		m.controlTxTime += txDur
		m.ledger.AttributeLoss(energy.LossControl, m.radio.TxPowerW()*txDur.Seconds())
		metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindSlotRelease, "member=%d", m.member)
		m.radio.PowerDown()
		m.park()
	}
}

// --- acknowledgement path (shared shape with the TDMA node) --------------

func (m *CSMANode) openAckWindow() {
	m.ackWaiting = true
	m.ackOpenAt = m.k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	m.ackTimeout = m.k.Schedule(m.cfg.Profile.MAC.AckTimeout, m.onAckExpiry)
}

func (m *CSMANode) handleAck() {
	if !m.ackWaiting {
		return
	}
	m.ackWaiting = false
	m.k.Cancel(m.ackTimeout)
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.ackOpenAt)
	m.tracer.Observe(m.name, trace.HistTxToAck, m.k.Now()-m.ackOpenAt)
	m.stats.DataAcked++
	if m.hasInFlight {
		m.finishInFlight()
	}
	m.tracer.Record(m.k.Now(), m.name, trace.KindAckRx, "")
}

//hot:path
func (m *CSMANode) onAckTimeout(*sim.Kernel) {
	if !m.ackWaiting {
		return
	}
	m.ackWaiting = false
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.ackOpenAt)
	m.stats.AckMissed++
	m.tracer.Record(m.k.Now(), m.name, trace.KindAckMissed, "")

	p := &m.cfg.Profile
	if m.hasInFlight {
		txDur := p.Radio.TxSettle + p.Radio.Airtime(packet.DataHeaderBytes+len(m.inFlight.payload))
		m.ledger.AttributeLoss(energy.LossCollision, m.radio.TxPowerW()*txDur.Seconds())
		if m.inFlight.retries < m.cfg.MaxRetries {
			m.inFlight.retries++
			m.stats.Retries++
			m.queue.PushFront(m.inFlight)
			m.dropInFlight()
		} else {
			m.stats.DataDropped++
			m.tracer.Record(m.k.Now(), m.name, trace.KindDataDropped, "")
			m.finishInFlight()
		}
	}
}

func (m *CSMANode) accountControlRx(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("mac %s: negative control window", m.name))
	}
	m.controlRxTime += d
	m.ledger.AttributeLoss(energy.LossControl, m.radio.RxPowerW()*d.Seconds())
}

// --- runtime audit accessors ---------------------------------------------

// AuditFrame checks the universal frame-conservation laws.
func (m *CSMANode) AuditFrame() []string {
	return AuditFrameStats(m.stats, m.carrySent, m.ackWaiting)
}

// AuditProtocol checks the channel-access consistency laws: every busy
// verdict and every failure is backed by an assessment, an exhausted
// attempt consumed at least one busy verdict, every burst was preceded by
// a clear assessment (with one epoch-straddle credit), and an active
// attempt's backoff state sits inside its configured bounds.
func (m *CSMANode) AuditProtocol() []string {
	var v []string
	s := m.stats
	if s.CCABusy > s.CCAAttempts {
		v = append(v, fmt.Sprintf("CCABusy %d exceeds CCAAttempts %d", s.CCABusy, s.CCAAttempts))
	}
	if s.CCAFails > s.CCABusy {
		v = append(v, fmt.Sprintf("CCAFails %d exceeds CCABusy %d", s.CCAFails, s.CCABusy))
	}
	bursts := s.DataSent + s.SSRSent + s.ReleasesSent
	clear := s.CCAAttempts - s.CCABusy
	if bursts > clear+1 {
		v = append(v, fmt.Sprintf("%d bursts exceed %d clear assessments (+1 straddle credit)",
			bursts, clear))
	}
	if m.attemptActive {
		if m.be < m.minBE || m.be > m.maxBE {
			v = append(v, fmt.Sprintf("backoff exponent %d outside [%d,%d]", m.be, m.minBE, m.maxBE))
		}
		if m.nb > m.maxBackoffs {
			v = append(v, fmt.Sprintf("attempt alive after %d busy verdicts (max %d)", m.nb, m.maxBackoffs))
		}
	}
	return v
}

// --- base station ---------------------------------------------------------

// CSMABS is the base station of the slotted CSMA/CA protocol: the static
// TDMA base station's beacon cadence, join handling and silence reclaim,
// with data frames attributed by their sender-ID header instead of slot
// timing (any member may transmit at any contention offset).
type CSMABS struct {
	*BS
}

// NewCSMABS wires a CSMA/CA base station. A zero StaticCycle selects
// DefaultCSMACycle; a zero MaxSlots admits MaxDynamicSlots members (the
// contention period has no slot geometry to limit it).
func NewCSMABS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *trace.Recorder) *CSMABS {
	if err := validateCSMAParams(cfg.Params); err != nil {
		panic(err)
	}
	cfg.Variant = Static
	if cfg.StaticCycle <= 0 {
		cfg.StaticCycle = DefaultCSMACycle
	}
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = cfg.Profile.MAC.MaxDynamicSlots
	}
	bs := NewBS(k, cfg, sched, r, ledger, tracer)
	bs.idHeader = true
	return &CSMABS{BS: bs}
}

var (
	_ NodeMAC = (*CSMANode)(nil)
	_ BSMAC   = (*CSMABS)(nil)
)
