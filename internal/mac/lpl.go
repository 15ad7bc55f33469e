package mac

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
	"repro/internal/trace"
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

// LPLNode is the sensor-node side of the preamble-sampling MAC.
type LPLNode struct {
	k      *sim.Kernel
	cfg    NodeConfig
	name   string
	sched  *tinyos.Sched
	radio  *radio.Radio
	ledger *energy.Ledger
	tracer *trace.Recorder

	checkInterval sim.Time
	strobeGap     sim.Time // post-strobe early-ack listen window
	maxStrobes    int      // train budget: one check interval plus margin

	state    nodeState
	onJoined []func()
	gen      uint64

	joinedSince sim.Time
	joinedAccum sim.Time
	joinedEver  bool
	rejoinArmed bool
	rejoinFrom  sim.Time

	txQueue
	op       lplOp
	opActive bool
	dataBuf  []byte
	ctrlBuf  []byte

	strobeCount   int
	strobeWaiting bool // early-ack listen gap open
	strobeOpenAt  sim.Time
	gapTimeout    sim.EventID

	ackOpenAt  sim.Time
	ackTimeout sim.EventID
	ackWaiting bool
	ssrOpenAt  sim.Time
	ssrTimeout sim.EventID
	ssrWaiting bool
	ssrNonce   uint16
	burstLeft  int

	// Steady-state steps, each a handler bound once in NewLPLNode. Crash
	// and park cancel the gap, SSR and ack timeouts; delayed restarts
	// file their generation by event ID.
	retries      sim.Pending[lplRetry]
	onRetry      sim.Handler
	onGapExpiry  sim.Handler
	onSSRExpiry  sim.Handler
	onAckExpiry  sim.Handler
	strobeLoaded func()
	strobeSent   func()
	dataLoaded   func()
	dataSent     func()

	stretchEvery int
	stretchCount uint64
	beaconOnly   bool

	stats     Stats
	carrySent uint64

	controlRxTime sim.Time
	controlTxTime sim.Time
	joinIdleTime  sim.Time
}

// lplRetry is the state of a delayed restart: the generation it was
// armed under, and whether it resumes a deferred train or launches a
// fresh one for op.
type lplRetry struct {
	gen    uint64
	op     lplOp
	resume bool
}

// NewLPLNode wires an LPL node MAC over its radio and OS. A zero
// CheckInterval selects DefaultLPLCheckInterval; it must match the base
// station's sampling period (core wires both from one config).
func NewLPLNode(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *trace.Recorder) *LPLNode {
	if cfg.TxQueueCap <= 0 {
		cfg.TxQueueCap = DefaultTxQueueCap
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	if err := validateLPLParams(cfg.Params); err != nil {
		panic(err)
	}
	p := cfg.Profile
	m := &LPLNode{
		k:             k,
		cfg:           cfg,
		name:          r.Name(),
		sched:         sched,
		radio:         r,
		ledger:        ledger,
		tracer:        tracer,
		checkInterval: cfg.Params.CheckInterval,
	}
	if m.checkInterval <= 0 {
		m.checkInterval = DefaultLPLCheckInterval
	}
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
	m.strobeLoaded = m.onStrobeLoaded
	m.strobeSent = m.onStrobeSent
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
		m.tracer.Record(m.k.Now(), m.name, trace.KindParked, "")
		return
	}
	m.state = stateRequesting
	if m.joinedEver && !m.rejoinArmed {
		m.rejoinArmed = true
		m.rejoinFrom = m.k.Now()
	}
	m.retryAfter(sim.Time(m.k.Rand().Int63n(int64(m.checkInterval))), lplOpSSR)
}

// OnJoined implements Mac.
func (m *LPLNode) OnJoined(fn func()) { m.onJoined = append(m.onJoined, fn) }

// Joined implements Mac.
func (m *LPLNode) Joined() bool { return m.state == stateJoined }

// Slot implements Mac: LPL has no slots or member indices to report.
func (m *LPLNode) Slot() int { return -1 }

// CycleLength implements Mac: the regulation period is the receiver's
// sampling interval.
func (m *LPLNode) CycleLength() sim.Time { return m.checkInterval }

// Stats implements Mac.
func (m *LPLNode) Stats() Stats { return m.stats }

// ControlRxTime reports receiver-on time in control windows (early-ack
// gaps, ack windows).
func (m *LPLNode) ControlRxTime() sim.Time { return m.controlRxTime }

// ControlTxTime reports transmit time spent on strobes and SSRs.
func (m *LPLNode) ControlTxTime() sim.Time { return m.controlTxTime }

// JoinIdleTime reports idle listening, which the LPL node never does:
// every receiver-on interval is a bounded control window.
func (m *LPLNode) JoinIdleTime() sim.Time { return m.joinIdleTime }

// Generation reports the crash generation counter.
func (m *LPLNode) Generation() uint64 { return m.gen }

// ResetAccounting zeroes statistics and loss accumulators (post-warmup).
func (m *LPLNode) ResetAccounting() {
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
func (m *LPLNode) JoinedTime() sim.Time {
	t := m.joinedAccum
	if m.state == stateJoined {
		t += m.k.Now() - m.joinedSince
	}
	return t
}

func (m *LPLNode) noteLeftSlot() {
	if m.state == stateJoined {
		m.joinedAccum += m.k.Now() - m.joinedSince
	}
}

// Crash implements NodeMAC (see NodeMac.Crash for the model).
func (m *LPLNode) Crash() {
	m.gen++
	m.closeStrobeGap()
	m.closeSSRWait()
	m.closeAckWindow()
	m.noteLeftSlot()
	m.state = stateCrashed
	m.queue.Reset()
	m.dropInFlight()
	m.op = lplOpNone
	m.opActive = false
	m.strobeCount = 0
	m.tracer.Record(m.k.Now(), m.name, trace.KindCrash, "")
}

// SetSlotStretch implements NodeMAC: every k-th transmission opportunity
// (strobe-train launch) is slept through.
func (m *LPLNode) SetSlotStretch(k int) {
	if k < 2 {
		m.stretchEvery = 0
		return
	}
	m.stretchEvery = k
}

// EnterBeaconOnly implements NodeMAC: with no beacons to keep, the final
// degradation rung of an LPL node is radio silence — the base station's
// silence reclaim retires the membership.
func (m *LPLNode) EnterBeaconOnly() {
	if m.beaconOnly {
		return
	}
	m.beaconOnly = true
	if m.state == stateCrashed {
		return // parks on reboot
	}
	m.park()
}

func (m *LPLNode) closeStrobeGap() {
	if !m.strobeWaiting {
		return
	}
	m.strobeWaiting = false
	m.k.Cancel(m.gapTimeout)
}

func (m *LPLNode) closeSSRWait() {
	if !m.ssrWaiting {
		return
	}
	m.ssrWaiting = false
	m.k.Cancel(m.ssrTimeout)
}

func (m *LPLNode) closeAckWindow() {
	if !m.ackWaiting {
		return
	}
	m.ackWaiting = false
	m.k.Cancel(m.ackTimeout)
	m.stats.Abandoned++
}

// park settles into radio silence. Unlike the beaconed MACs the parked
// node keeps no windows at all.
func (m *LPLNode) park() {
	m.closeStrobeGap()
	m.closeSSRWait()
	m.closeAckWindow()
	m.noteLeftSlot()
	m.state = stateParked
	m.queue.Reset()
	m.dropInFlight()
	m.op = lplOpNone
	m.opActive = false
	if m.radio.Mode() == radio.ModeRx {
		m.radio.PowerDown()
	}
	m.tracer.Record(m.k.Now(), m.name, trace.KindParked, "")
}

// Send implements Mac: a queued frame launches a strobe train if none is
// running. The payload is copied into a recycled buffer.
//
//hot:path
func (m *LPLNode) Send(payload []byte) bool {
	if m.queue.Len() >= m.cfg.TxQueueCap {
		m.stats.QueueDrops++
		return false
	}
	m.enqueue(payload, m.k.Now())
	if m.state == stateJoined && !m.opActive {
		m.startDataOp()
	}
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

// startDataOp launches a data delivery strobe train.
func (m *LPLNode) startDataOp() {
	if m.state != stateJoined || m.opActive || m.queue.Len() == 0 {
		return
	}
	if m.stretchEvery >= 2 {
		m.stretchCount++
		if m.stretchCount%uint64(m.stretchEvery) == 0 {
			// Duty-cycle stretch: sleep through this opportunity and
			// check back one sampling period later.
			m.stats.SlotsSkipped++
			metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindSlotSkip, "op=%d", m.stretchCount)
			m.retryAfter(m.checkInterval, lplOpData)
			return
		}
	}
	m.opActive = true
	m.op = lplOpData
	m.strobeCount = 0
	m.strobeStep()
}

// retryAfter launches a fresh train for op after delay, unless a crash
// intervenes.
func (m *LPLNode) retryAfter(delay sim.Time, op lplOp) {
	m.retries.Schedule(m.k, delay, m.onRetry, lplRetry{gen: m.gen, op: op})
}

// retryDue runs a delayed restart.
//
//hot:path
func (m *LPLNode) retryDue(k *sim.Kernel) {
	r := m.retries.Take(k)
	switch {
	case m.gen != r.gen:
		// Armed before a crash.
	case r.resume:
		m.strobeStep()
	case r.op == lplOpSSR:
		m.startJoinOp()
	default:
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
	m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, m.strobeLoaded)
}

// onStrobeLoaded fires a strobe once it sits in the radio FIFO.
//
//hot:path
func (m *LPLNode) onStrobeLoaded() {
	if m.state == stateParked || m.state == stateCrashed || !m.opActive {
		m.radio.PowerDown()
		return
	}
	m.radio.Fire(m.strobeSent)
}

// onStrobeSent accounts a strobe once it has flown.
//
//hot:path
func (m *LPLNode) onStrobeSent() {
	if m.state == stateParked || m.state == stateCrashed || !m.opActive {
		m.radio.PowerDown()
		return
	}
	p := &m.cfg.Profile
	m.stats.StrobesSent++
	txDur := p.Radio.TxSettle + p.Radio.Airtime(packet.StrobeBytes)
	m.controlTxTime += txDur
	m.ledger.AttributeLoss(energy.LossControl, m.radio.TxPowerW()*txDur.Seconds())
	m.openStrobeGap()
}

// openStrobeGap listens briefly for the early ack that truncates the
// train.
func (m *LPLNode) openStrobeGap() {
	m.strobeWaiting = true
	m.strobeOpenAt = m.k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	m.gapTimeout = m.k.Schedule(m.strobeGap, m.onGapExpiry)
}

// onStrobeGapTimeout closes an unanswered listen gap.
//
//hot:path
func (m *LPLNode) onStrobeGapTimeout(*sim.Kernel) {
	if !m.strobeWaiting {
		return
	}
	m.strobeWaiting = false
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.strobeOpenAt)
	if m.radio.ChannelBusy() {
		// The gap heard a foreign transaction (another node's train or
		// payload exchange): defer politely instead of strobing over it.
		// The pause does not consume the strobe budget.
		delay := lplDeferFloor + sim.Time(m.k.Rand().Int63n(int64(lplDeferSpan)))
		m.retries.Schedule(m.k, delay, m.onRetry, lplRetry{gen: m.gen, resume: true})
		return
	}
	m.strobeStep()
}

// handleStrobeAck truncates the train: the receiver is awake and
// waiting.
func (m *LPLNode) handleStrobeAck() {
	if !m.strobeWaiting {
		return
	}
	m.strobeWaiting = false
	m.k.Cancel(m.gapTimeout)
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.strobeOpenAt)
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
		m.dataBuf = append(m.dataBuf[:0], m.cfg.NodeID)
		m.dataBuf = append(m.dataBuf, m.inFlight.payload...)
		m.radio.Load(m.cfg.Plan.BSData, m.dataBuf, m.dataLoaded)
	}
}

// sendSSR delivers the association request.
//
//lint:allow hotalloc association is a join transient, not a per-frame step
func (m *LPLNode) sendSSR() {
	p := m.cfg.Profile
	m.ssrNonce++
	ssr := packet.SSR{NodeID: m.cfg.NodeID, Nonce: m.ssrNonce}
	gen := m.gen
	m.sched.Interrupt("ssr-prep", p.Cost.SSRPrep, func() {
		if m.gen != gen || !m.opActive {
			return
		}
		m.ctrlBuf = ssr.AppendMarshal(m.ctrlBuf[:0])
		m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, func() {
			if m.state == stateParked || m.state == stateCrashed {
				m.radio.PowerDown()
				return
			}
			m.radio.Fire(func() {
				if m.state == stateParked || m.state == stateCrashed {
					m.radio.PowerDown()
					return
				}
				m.stats.SSRSent++
				txDur := p.Radio.TxSettle + p.Radio.Airtime(packet.SSRBytes)
				m.controlTxTime += txDur
				m.ledger.AttributeLoss(energy.LossControl, m.radio.TxPowerW()*txDur.Seconds())
				metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindSSRTx, "nonce=%d", m.ssrNonce)
				m.openSSRWait()
			})
		})
	})
}

// onDataLoaded fires the loaded payload.
//
//hot:path
func (m *LPLNode) onDataLoaded() {
	if m.state == stateParked || m.state == stateCrashed {
		m.radio.PowerDown()
		return
	}
	lat := m.k.Now() - m.inFlight.enqueuedAt
	m.stats.addLatency(lat)
	m.tracer.Observe(m.name, trace.HistSlotWait, lat)
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
	m.stats.DataSent++
	metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindDataTx, "len=%d", len(m.dataBuf))
	m.openAckWindow()
}

// openSSRWait listens for the association ack.
func (m *LPLNode) openSSRWait() {
	m.ssrWaiting = true
	m.ssrOpenAt = m.k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	m.ssrTimeout = m.k.Schedule(m.cfg.Profile.MAC.AckTimeout, m.onSSRExpiry)
}

// onSSRTimeout retries the association after a randomised backoff (the
// receiver woke but the handshake broke: collision, or membership full).
func (m *LPLNode) onSSRTimeout(*sim.Kernel) {
	if !m.ssrWaiting {
		return
	}
	m.ssrWaiting = false
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.ssrOpenAt)
	m.endOp()
	m.retryAfter(m.checkInterval+sim.Time(m.k.Rand().Int63n(int64(m.checkInterval))), lplOpSSR)
}

// openAckWindow listens for the data acknowledgement.
func (m *LPLNode) openAckWindow() {
	m.ackWaiting = true
	m.ackOpenAt = m.k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	m.ackTimeout = m.k.Schedule(m.cfg.Profile.MAC.AckTimeout, m.onAckExpiry)
}

// handleAck resolves whichever handshake is waiting: the association
// (while requesting) or a data frame.
func (m *LPLNode) handleAck() {
	now := m.k.Now()
	if m.ssrWaiting {
		m.ssrWaiting = false
		m.k.Cancel(m.ssrTimeout)
		m.radio.PowerDown()
		m.accountControlRx(now - m.ssrOpenAt)
		m.endOp()
		m.state = stateJoined
		m.joinedSince = now
		if m.rejoinArmed {
			m.tracer.Observe(m.name, trace.HistRejoin, now-m.rejoinFrom)
			m.rejoinArmed = false
		}
		m.joinedEver = true
		m.tracer.Record(now, m.name, trace.KindJoined, "")
		for _, fn := range m.onJoined {
			fn()
		}
		if m.queue.Len() > 0 {
			m.startDataOp()
		}
		return
	}
	if !m.ackWaiting {
		return
	}
	m.ackWaiting = false
	m.k.Cancel(m.ackTimeout)
	m.accountControlRx(now - m.ackOpenAt)
	m.tracer.Observe(m.name, trace.HistTxToAck, now-m.ackOpenAt)
	m.stats.DataAcked++
	if m.hasInFlight {
		m.finishInFlight()
	}
	m.tracer.Record(now, m.name, trace.KindAckRx, "")
	m.radio.PowerDown()
	if m.queue.Len() > 0 && m.burstLeft > 0 {
		// The receiver reopens its window after each ack: continue the
		// burst without a fresh strobe train.
		m.burstLeft--
		m.sendPayload()
		return
	}
	m.endOp()
	if m.queue.Len() > 0 {
		m.startDataOp()
	}
}

// onAckTimeout treats the payload as lost (the wake window closed, or
// the frame collided) and retries through a fresh strobe train.
//
//hot:path
func (m *LPLNode) onAckTimeout(*sim.Kernel) {
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

func (m *LPLNode) accountControlRx(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("mac %s: negative control window", m.name))
	}
	m.controlRxTime += d
	m.ledger.AttributeLoss(energy.LossControl, m.radio.RxPowerW()*d.Seconds())
}

// --- runtime audit accessors ---------------------------------------------

// AuditFrame checks the universal frame-conservation laws.
func (m *LPLNode) AuditFrame() []string {
	return AuditFrameStats(m.stats, m.carrySent, m.ackWaiting)
}

// AuditProtocol checks the preamble-sampling consistency laws: every
// early ack truncated a train that strobed at least once, every payload
// burst rode a wake that an early ack opened (bounded by the per-wake
// burst budget), and every exhausted train consumed a full strobe budget
// (all with one epoch-straddle credit).
func (m *LPLNode) AuditProtocol() []string {
	var v []string
	s := m.stats
	if s.EarlyAcks > s.StrobesSent+1 {
		v = append(v, fmt.Sprintf("EarlyAcks %d exceed StrobesSent %d (+1 straddle credit)",
			s.EarlyAcks, s.StrobesSent))
	}
	if payloads := s.DataSent + s.SSRSent; payloads > lplWakeBurst*s.EarlyAcks+1 {
		v = append(v, fmt.Sprintf("%d payloads exceed %d early acks × burst %d (+1 straddle credit)",
			payloads, s.EarlyAcks, lplWakeBurst))
	}
	if s.StrobeFails*uint64(m.maxStrobes) > s.StrobesSent+uint64(m.maxStrobes) {
		v = append(v, fmt.Sprintf("StrobeFails %d imply more than the %d strobes sent (budget %d)",
			s.StrobeFails, s.StrobesSent, m.maxStrobes))
	}
	if m.strobeWaiting && !m.opActive {
		v = append(v, "strobe gap open with no active train")
	}
	return v
}

// --- base station ---------------------------------------------------------

// LPLBS is the duty-cycled receiver: it probes the channel every check
// interval, answers a caught strobe with an early ack, and services the
// opened wake (association or data, with per-ack window reopening for
// bursts).
type LPLBS struct {
	k      *sim.Kernel
	cfg    BSConfig
	sched  *tinyos.Sched
	radio  *radio.Radio
	ledger *energy.Ledger
	tracer *trace.Recorder

	checkInterval sim.Time
	startAt       sim.Time
	maxMembers    int

	members  map[uint8]int // node → member index
	memberAt map[int]uint8 // member index → node
	silent   map[uint8]int

	waking          bool // a probe/wake owns the radio
	acking          bool // early ack committed: turnaround/transmit in progress
	awaitingPayload bool // receive window open for a payload
	probeOpenAt     sim.Time
	probeTimeout    sim.EventID
	payloadTimeout  sim.EventID

	onData func(rec RxRecord)
	rxLog
	stats   BSStats
	started bool

	ackBuf       []byte
	strobeAckBuf []byte
	ids          []uint8 // reclaim sweep scratch

	// Steady-state steps, each a handler bound once in NewLPLBS. One probe
	// is armed and one ack can fly at a time, so their state lives in
	// fields; owed acks ride on MCU completions, which keep posting order.
	probeN          uint64
	firingEarly     bool
	acks            sim.FIFO[lplAck]
	ackLoads        sim.FIFO[lplAck]
	forwards        sim.FIFO[RxRecord]
	onProbe         sim.Handler
	onProbeExpiry   sim.Handler
	onPayloadExpiry sim.Handler
	ackTurnaround   func()
	ackLoaded       func()
	ackSent         func()
	forwarded       func()
}

// lplAck is an acknowledgement the base station owes: the early ack that
// truncates a strobe train, or a data frame's ack.
type lplAck struct {
	early bool
	rec   RxRecord // the acknowledged frame; only Node for an early ack
}

// NewLPLBS wires an LPL base station. A zero CheckInterval selects
// DefaultLPLCheckInterval; a zero MaxSlots admits MaxDynamicSlots
// members.
func NewLPLBS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *trace.Recorder) *LPLBS {
	if err := validateLPLParams(cfg.Params); err != nil {
		panic(err)
	}
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = cfg.Profile.MAC.MaxDynamicSlots
	}
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	bs := &LPLBS{
		k:             k,
		cfg:           cfg,
		sched:         sched,
		radio:         r,
		ledger:        ledger,
		tracer:        tracer,
		checkInterval: cfg.Params.CheckInterval,
		maxMembers:    cfg.MaxSlots,
		members:       make(map[uint8]int),
		memberAt:      make(map[int]uint8),
		silent:        make(map[uint8]int),
	}
	if bs.checkInterval <= 0 {
		bs.checkInterval = DefaultLPLCheckInterval
	}
	bs.onProbe = bs.probe
	bs.onProbeExpiry = bs.onProbeIdle
	bs.onPayloadExpiry = bs.onPayloadTimeout
	bs.ackTurnaround = bs.turnAck
	bs.ackLoaded = bs.onAckLoaded
	bs.ackSent = bs.onAckSent
	bs.forwarded = bs.forward
	r.SetReceiveHandler(bs.onFrame)
	return bs
}

// OnData implements BSMAC.
func (bs *LPLBS) OnData(fn func(rec RxRecord)) { bs.onData = fn }

// Received implements BSMAC.
func (bs *LPLBS) Received() []RxRecord { return bs.received }

// Stats implements BSMAC.
func (bs *LPLBS) Stats() BSStats { return bs.stats }

// CycleLength implements BSMAC: the regulation period is the sampling
// interval.
func (bs *LPLBS) CycleLength() sim.Time { return bs.checkInterval }

// Nodes implements BSMAC: member IDs in assignment order.
func (bs *LPLBS) Nodes() []uint8 {
	idxs := make([]int, 0, len(bs.memberAt))
	for i := range bs.memberAt {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]uint8, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, bs.memberAt[i])
	}
	return out
}

// ResetAccounting implements BSMAC.
func (bs *LPLBS) ResetAccounting() {
	bs.stats = BSStats{}
	bs.received = nil
}

// AuditTable implements BSMAC: the membership maps must be inverse
// bijections with indices inside the admission cap.
func (bs *LPLBS) AuditTable() []string {
	var v []string
	if len(bs.members) != len(bs.memberAt) {
		v = append(v, fmt.Sprintf("member maps out of step: %d nodes, %d indices",
			len(bs.members), len(bs.memberAt)))
	}
	ids := make([]uint8, 0, len(bs.members))
	for id := range bs.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		idx := bs.members[id]
		if idx < 0 || idx >= bs.maxMembers {
			v = append(v, fmt.Sprintf("node %d holds out-of-range member index %d (max %d)",
				id, idx, bs.maxMembers))
			continue
		}
		if holder, ok := bs.memberAt[idx]; !ok || holder != id {
			v = append(v, fmt.Sprintf("member index %d granted to node %d but the index map names node %d",
				idx, id, holder))
		}
	}
	return v
}

// Start implements BSMAC: the sampling schedule is anchored at the start
// instant, probe n firing at n check intervals, independent of how long
// individual wakes run.
func (bs *LPLBS) Start() {
	if bs.started {
		panic("mac: base station started twice")
	}
	bs.started = true
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
// serviced across the probe instant).
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
	bs.radio.SetRxAddresses(bs.cfg.Plan.BSData, bs.cfg.Plan.BSCtrl)
	bs.radio.StartRx()
	window := bs.cfg.Profile.Radio.RxSettle + lplMaxStrobeSpacing
	bs.probeTimeout = bs.k.Schedule(window, bs.onProbeExpiry)
}

// onProbeIdle closes a silent sampling window: its receiver-on time is
// the protocol's idle-listening cost.
//
//hot:path
func (bs *LPLBS) onProbeIdle(*sim.Kernel) {
	if !bs.waking || bs.awaitingPayload {
		return
	}
	bs.waking = false
	bs.radio.PowerDown()
	idle := bs.k.Now() - bs.probeOpenAt
	bs.ledger.AttributeLoss(energy.LossIdleListening,
		bs.radio.RxPowerW()*idle.Seconds())
}

// reclaimSilent ages the members' silence counters once per sampling
// interval and retires members silent for ReclaimAfter consecutive
// intervals (0 disables, as for the TDMA base station).
func (bs *LPLBS) reclaimSilent() {
	if bs.cfg.ReclaimAfter <= 0 || len(bs.members) == 0 {
		return
	}
	ids := bs.ids[:0]
	for id := range bs.members {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	bs.ids = ids
	for _, id := range ids {
		bs.silent[id]++
		if bs.silent[id] < bs.cfg.ReclaimAfter {
			continue
		}
		idx := bs.members[id]
		delete(bs.members, id)
		delete(bs.memberAt, idx)
		delete(bs.silent, id)
		bs.stats.SlotsReclaimed++
		metrics.Record3(bs.tracer, bs.k.Now(), "bs", trace.KindSlotReclaim,
			"node=%d member=%d after=%d", id, idx, bs.cfg.ReclaimAfter)
	}
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
	if !bs.waking || bs.acking || bs.awaitingPayload {
		// A second sender's strobe during an already-open wake — or one
		// caught in the ack-turnaround gap, before the radio commits to
		// transmit: ignored; its train retries at the next probe.
		return
	}
	bs.acking = true
	bs.k.Cancel(bs.probeTimeout)
	bs.acks.Push(lplAck{early: true, rec: RxRecord{Node: s.NodeID}})
	bs.sched.Interrupt("bs-strobe-turnaround", bs.cfg.Profile.Cost.BSAckTurnaround, bs.ackTurnaround)
}

// turnAck loads an acknowledgement once the turnaround ISR ran.
//
//hot:path
func (bs *LPLBS) turnAck() {
	a := bs.acks.Pop()
	if a.early && (!bs.waking || bs.awaitingPayload) {
		return
	}
	bs.radio.Standby()
	var frame []byte
	if a.early {
		bs.strobeAckBuf = packet.StrobeAck{}.AppendMarshal(bs.strobeAckBuf[:0])
		frame = bs.strobeAckBuf
	} else {
		bs.ackBuf = packet.Ack{}.AppendMarshal(bs.ackBuf[:0])
		frame = bs.ackBuf
	}
	bs.ackLoads.Push(a)
	bs.radio.Load(bs.cfg.Plan.NodeAddr(a.rec.Node), frame, bs.ackLoaded)
}

// onAckLoaded fires a loaded acknowledgement; a data frame's forwarding
// to the collecting device is posted behind it.
//
//hot:path
func (bs *LPLBS) onAckLoaded() {
	a := bs.ackLoads.Pop()
	bs.firingEarly = a.early
	bs.radio.Fire(bs.ackSent)
	if !a.early && bs.sched.PostFn("bs-data-handle", bs.cfg.Profile.Cost.BSDataHandle, bs.forwarded) {
		bs.forwards.Push(a.rec)
	}
}

// onAckSent reopens the wake's receive window once an acknowledgement
// has flown.
//
//hot:path
func (bs *LPLBS) onAckSent() {
	if bs.firingEarly {
		bs.stats.EarlyAcksSent++
	} else {
		bs.stats.AcksSent++
	}
	bs.openPayloadWindow()
}

// forward hands an acknowledged frame to the data sink.
//
//hot:path
func (bs *LPLBS) forward() {
	rec := bs.forwards.Pop()
	if bs.onData != nil {
		bs.onData(rec)
	}
}

// openPayloadWindow holds the receiver on for the sender's cargo.
func (bs *LPLBS) openPayloadWindow() {
	bs.acking = false
	bs.awaitingPayload = true
	bs.radio.SetRxAddresses(bs.cfg.Plan.BSData, bs.cfg.Plan.BSCtrl)
	bs.radio.StartRx()
	bs.payloadTimeout = bs.k.Schedule(lplPayloadWait, bs.onPayloadExpiry)
}

//hot:path
func (bs *LPLBS) onPayloadTimeout(*sim.Kernel) {
	if !bs.awaitingPayload {
		return
	}
	bs.endWake()
}

func (bs *LPLBS) endWake() {
	bs.acking = false
	bs.awaitingPayload = false
	bs.waking = false
	if bs.radio.Mode() == radio.ModeRx {
		bs.radio.PowerDown()
	}
}

// handleSSR services an association handshake inside the wake: admit (or
// re-admit) the node and ack, or silently reject at the membership cap.
//
//lint:allow hotalloc association is a join transient, not a per-frame step
func (bs *LPLBS) handleSSR(ssr packet.SSR) {
	if !bs.awaitingPayload {
		return
	}
	bs.stats.SSRReceived++
	bs.k.Cancel(bs.payloadTimeout)
	bs.sched.PostFn("bs-slot-assign", bs.cfg.Profile.Cost.BSSlotAssign, func() {
		delete(bs.silent, ssr.NodeID)
		idx, member := bs.members[ssr.NodeID]
		if !member {
			if len(bs.members) >= bs.maxMembers {
				bs.stats.SSRRejected++
				bs.endWake()
				return
			}
			idx = bs.nextFreeMember()
			bs.members[ssr.NodeID] = idx
			bs.memberAt[idx] = ssr.NodeID
		}
		metrics.Record2(bs.tracer, bs.k.Now(), "bs", trace.KindSlotGrant,
			"node=%d member=%d", ssr.NodeID, idx)
		bs.radio.Standby()
		bs.ackBuf = packet.Ack{}.AppendMarshal(bs.ackBuf[:0])
		bs.radio.Load(bs.cfg.Plan.NodeAddr(ssr.NodeID), bs.ackBuf, func() {
			bs.radio.Fire(func() {
				bs.stats.AcksSent++
				bs.awaitingPayload = false
				bs.endWake()
			})
		})
	})
}

func (bs *LPLBS) nextFreeMember() int {
	for i := 0; ; i++ {
		if _, used := bs.memberAt[i]; !used {
			return i
		}
	}
}

// handleRelease retires a membership voluntarily (accepted for protocol
// symmetry; the LPL node's park is silent and relies on silence reclaim).
func (bs *LPLBS) handleRelease(rel packet.Release) {
	idx, member := bs.members[rel.NodeID]
	if !member {
		return
	}
	delete(bs.members, rel.NodeID)
	delete(bs.memberAt, idx)
	delete(bs.silent, rel.NodeID)
	bs.stats.SlotsReleased++
	metrics.Record2(bs.tracer, bs.k.Now(), "bs", trace.KindSlotRelease,
		"node=%d member=%d", rel.NodeID, idx)
}

// handleData accepts a member's payload (sender-ID header attribution),
// acks it, and reopens the window for a burst continuation.
func (bs *LPLBS) handleData(payload []byte) {
	if !bs.awaitingPayload {
		return
	}
	if len(payload) <= packet.DataHeaderBytes {
		bs.stats.StrayFrames++
		return
	}
	id := payload[0]
	if _, member := bs.members[id]; !member {
		bs.stats.StrayFrames++
		return
	}
	delete(bs.silent, id)
	bs.k.Cancel(bs.payloadTimeout)
	bs.awaitingPayload = false
	// The radio is committed to the data ack from here until the window
	// reopens: a strobe caught in the gap must not start a second
	// transmit (see handleStrobe's guard).
	bs.acking = true
	rec := bs.log(id, payload[packet.DataHeaderBytes:], bs.k.Now())
	bs.stats.DataReceived++
	metrics.Record2(bs.tracer, bs.k.Now(), "bs", trace.KindDataRx, "node=%d len=%d", id, len(rec.Payload))
	bs.acks.Push(lplAck{rec: rec})
	bs.sched.Interrupt("bs-ack-turnaround", bs.cfg.Profile.Cost.BSAckTurnaround, bs.ackTurnaround)
}

var (
	_ NodeMAC = (*LPLNode)(nil)
	_ BSMAC   = (*LPLBS)(nil)
)
