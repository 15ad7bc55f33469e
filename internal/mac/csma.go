package mac

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
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

// CSMANode is the sensor-node side of the slotted CSMA/CA protocol: the
// beacon-synced node core plus the backoff and clear-channel assessment
// of each contention attempt.
type CSMANode struct {
	beaconSync

	minBE       int
	maxBE       int
	maxBackoffs int

	op     csmaOp
	firing csmaOp // the op of the frame on the air

	// Contention attempt state (one attempt machine per node).
	attemptActive bool
	nb            int // busy verdicts consumed by this attempt
	be            int // current backoff exponent

	// Steady-state steps, each a handler bound once in NewCSMANode; the
	// backoff and CCA steps carry their generation in the event's
	// argument word.
	onContend    sim.Handler
	onAckExpiry  sim.Handler
	beaconParsed func()
	ssrPrepped   func()
	frameLoaded  func()
	frameSent    func()
}

// NewCSMANode wires a CSMA/CA node MAC over its radio and OS. Zero
// Params fields select the documented defaults. The beacon guard, size
// bound and parse cost are the static TDMA's, whose beacon cadence the
// protocol keeps.
func NewCSMANode(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *CSMANode {
	p := csmaDefaults(cfg.Params)
	m := &CSMANode{minBE: p.MinBE, maxBE: p.MaxBE, maxBackoffs: p.MaxBackoffs}
	m.init(k, cfg, sched, r, ledger, tracer, m.endAttempt)
	m.dataHeader = packet.DataHeaderBytes
	m.onContend = m.contendDue
	m.onAckExpiry = m.ackExpired
	m.beaconParsed = m.afterBeacon
	m.ssrPrepped = m.onSSRPrepped
	m.frameLoaded = m.onFrameLoaded
	m.frameSent = m.onFrameSent
	r.SetReceiveHandler(m.onFrame)
	return m
}

// endAttempt forgets the contention attempt and its frame kind (crash,
// park, rejoin).
func (m *CSMANode) endAttempt() {
	m.op = csmaOpNone
	m.attemptActive = false
}

// onFrame dispatches a received frame.
//
//hot:path
func (m *CSMANode) onFrame(f packet.Frame) { m.receive(f, m.beaconParsed) }

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
		if m.skipStretched("cycle=%d") {
			return
		}
		m.beginAttempt(csmaOpData)
	}
}

// --- contention attempt machine ------------------------------------------

// beginAttempt loads op's frame into the FIFO (if not already resident
// from a deferred attempt) and starts the backoff/CCA loop. One attempt
// runs per beacon cycle; an attempt that runs out of time or backoffs
// leaves the frame loaded for the next cycle.
func (m *CSMANode) beginAttempt(op csmaOp) {
	if m.attemptActive || m.loading || m.ack.open {
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
	p := m.cfg.Profile
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
			m.radio.Load(m.cfg.Plan.BSData, m.idFrame(), m.frameLoaded)
		case csmaOpSSR:
			m.nextSSR()
			m.op = csmaOpSSR
			m.loading = true
			m.sched.Interrupt("ssr-prep", p.Cost.SSRPrep, m.ssrPrepped)
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

// onSSRPrepped loads the slot request whose prep just ran. The loading
// guard keeps one prep in flight, so the request is the one that drew
// the latest nonce.
func (m *CSMANode) onSSRPrepped() {
	if m.radio.Mode() == radio.ModeRx || m.radio.Mode() == radio.ModeTx {
		m.loading = false
		m.op = csmaOpNone
		return
	}
	ssr := packet.SSR{NodeID: m.cfg.NodeID, Nonce: m.ssrNonce}
	m.ctrlBuf = ssr.AppendMarshal(m.ctrlBuf[:0])
	m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.frameLoaded)
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
	m.k.ScheduleArgAt(at, m.onContend, m.gen<<1)
}

// contendDue runs a contention step: the end of a backoff wait, or with
// the argument word's low bit set, the end of a CCA window. The word's
// high bits hold the generation the step was armed under.
//
//hot:path
func (m *CSMANode) contendDue(k *sim.Kernel) {
	if k.Arg()>>1 != m.gen {
		return // armed before a crash
	}
	if k.Arg()&1 == 0 {
		m.ccaStart(k)
	} else {
		m.ccaSample()
	}
}

// ccaStart turns the receiver on for the clear-channel assessment once
// the backoff wait has run out.
//
//hot:path
func (m *CSMANode) ccaStart(k *sim.Kernel) {
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
	m.k.ScheduleArgAt(k.Now()+m.cfg.Profile.Radio.RxSettle+csmaCCADuration, m.onContend, m.gen<<1|1)
}

// ccaSample reads the energy-detect verdict at the end of the window.
//
//hot:path
func (m *CSMANode) ccaSample() {
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
	if m.firing == csmaOpData {
		m.noteQueueDelay()
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
	switch m.firing {
	case csmaOpData:
		m.op = csmaOpNone
		if m.state == stateParked {
			m.radio.PowerDown()
			return
		}
		m.dataFlown(m.onAckExpiry, 0)
	case csmaOpSSR:
		m.op = csmaOpNone
		m.ssrFlown()
		m.radio.PowerDown()
	case csmaOpRelease:
		m.op = csmaOpNone
		m.releaseFlown("member=%d")
	}
}

// ackExpired runs an acknowledgement window's timeout; a lost frame
// recontends after a later beacon.
//
//hot:path
func (m *CSMANode) ackExpired(*sim.Kernel) { m.ackMissed() }

// --- runtime audit accessors ---------------------------------------------

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

// NewCSMABS wires the base station of the slotted CSMA/CA protocol: the
// static TDMA base station's beacon cadence, join handling and silence
// reclaim, with data frames attributed by their sender-ID header instead
// of slot timing (any member may transmit at any contention offset). A
// zero StaticCycle selects DefaultCSMACycle; a zero MaxSlots admits
// MaxDynamicSlots members.
func NewCSMABS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *BS {
	if cfg.StaticCycle <= 0 {
		cfg.StaticCycle = DefaultCSMACycle
	}
	bs := NewBS(k, cfg, sched, r, ledger, tracer)
	bs.idHeader = true
	return bs
}
