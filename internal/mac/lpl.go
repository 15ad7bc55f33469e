package mac

import (
	"fmt"
	"sort"

	"repro/internal/energy"
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

	queue    []txItem
	inFlight *txItem
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

	stretchEvery int
	stretchCount uint64
	beaconOnly   bool

	stats     Stats
	carrySent uint64

	controlRxTime sim.Time
	controlTxTime sim.Time
	joinIdleTime  sim.Time
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
	delay := sim.Time(m.k.Rand().Int63n(int64(m.checkInterval)))
	gen := m.gen
	m.k.Schedule(delay, func(*sim.Kernel) {
		if m.gen != gen {
			return // armed before a crash
		}
		m.startJoinOp()
	})
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
	m.queue = nil
	m.inFlight = nil
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
	m.queue = nil
	m.inFlight = nil
	m.op = lplOpNone
	m.opActive = false
	if m.radio.Mode() == radio.ModeRx {
		m.radio.PowerDown()
	}
	m.tracer.Record(m.k.Now(), m.name, trace.KindParked, "")
}

// Send implements Mac: a queued frame launches a strobe train if none is
// running.
func (m *LPLNode) Send(payload []byte) bool {
	if len(m.queue) >= m.cfg.TxQueueCap {
		m.stats.QueueDrops++
		return false
	}
	m.queue = append(m.queue, txItem{payload: append([]byte(nil), payload...), enqueuedAt: m.k.Now()})
	if m.state == stateJoined && !m.opActive {
		m.startDataOp()
	}
	return true
}

// --- frame dispatch ------------------------------------------------------

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
	if m.state != stateJoined || m.opActive || len(m.queue) == 0 {
		return
	}
	if m.stretchEvery >= 2 {
		m.stretchCount++
		if m.stretchCount%uint64(m.stretchEvery) == 0 {
			// Duty-cycle stretch: sleep through this opportunity and
			// check back one sampling period later.
			m.stats.SlotsSkipped++
			m.tracer.Recordf(m.k.Now(), m.name, trace.KindSlotSkip, "op=%d", m.stretchCount)
			gen := m.gen
			m.k.Schedule(m.checkInterval, func(*sim.Kernel) {
				if m.gen != gen {
					return
				}
				m.startDataOp()
			})
			return
		}
	}
	m.opActive = true
	m.op = lplOpData
	m.strobeCount = 0
	m.strobeStep()
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
		delay := m.checkInterval + sim.Time(m.k.Rand().Int63n(int64(m.checkInterval)))
		gen := m.gen
		m.k.Schedule(delay, func(*sim.Kernel) {
			if m.gen != gen {
				return
			}
			if op == lplOpSSR {
				m.startJoinOp()
			} else {
				m.startDataOp()
			}
		})
		return
	}
	m.strobeCount++
	p := m.cfg.Profile
	strobe := packet.Strobe{NodeID: m.cfg.NodeID}
	m.ctrlBuf = strobe.AppendMarshal(m.ctrlBuf[:0])
	m.radio.Load(m.cfg.Plan.BSCtrl, m.ctrlBuf, func() {
		if m.state == stateParked || m.state == stateCrashed || !m.opActive {
			m.radio.PowerDown()
			return
		}
		m.radio.Fire(func() {
			if m.state == stateParked || m.state == stateCrashed || !m.opActive {
				m.radio.PowerDown()
				return
			}
			m.stats.StrobesSent++
			txDur := p.Radio.TxSettle + p.Radio.Airtime(packet.StrobeBytes)
			m.controlTxTime += txDur
			m.ledger.AttributeLoss(energy.LossControl, m.radio.TxPowerW()*txDur.Seconds())
			m.openStrobeGap()
		})
	})
}

// openStrobeGap listens briefly for the early ack that truncates the
// train.
func (m *LPLNode) openStrobeGap() {
	m.strobeWaiting = true
	m.strobeOpenAt = m.k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	gen := m.gen
	m.gapTimeout = m.k.Schedule(m.strobeGap, func(*sim.Kernel) {
		if m.gen != gen {
			return
		}
		m.onStrobeGapTimeout()
	})
}

func (m *LPLNode) onStrobeGapTimeout() {
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
		gen := m.gen
		m.k.Schedule(delay, func(*sim.Kernel) {
			if m.gen != gen {
				return
			}
			m.strobeStep()
		})
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
	p := m.cfg.Profile
	switch m.op {
	case lplOpSSR:
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
					m.tracer.Recordf(m.k.Now(), m.name, trace.KindSSRTx, "nonce=%d", m.ssrNonce)
					m.openSSRWait()
				})
			})
		})
	case lplOpData:
		if m.inFlight == nil {
			if len(m.queue) == 0 {
				m.endOp()
				return
			}
			item := m.queue[0]
			m.queue = m.queue[1:]
			m.inFlight = &item
		}
		m.dataBuf = append(append(m.dataBuf[:0], m.cfg.NodeID), m.inFlight.payload...)
		m.radio.Load(m.cfg.Plan.BSData, m.dataBuf, func() {
			if m.state == stateParked || m.state == stateCrashed {
				m.radio.PowerDown()
				return
			}
			lat := m.k.Now() - m.inFlight.enqueuedAt
			m.stats.LatencySum += lat
			m.stats.LatencyCount++
			if lat > m.stats.LatencyMax {
				m.stats.LatencyMax = lat
			}
			m.tracer.Observe(m.name, trace.HistSlotWait, lat)
			m.radio.Fire(func() {
				if m.state == stateCrashed {
					return
				}
				m.stats.DataSent++
				m.tracer.Recordf(m.k.Now(), m.name, trace.KindDataTx, "len=%d", len(m.dataBuf))
				m.openAckWindow()
			})
		})
	}
}

// openSSRWait listens for the association ack.
func (m *LPLNode) openSSRWait() {
	p := m.cfg.Profile
	m.ssrWaiting = true
	m.ssrOpenAt = m.k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	gen := m.gen
	m.ssrTimeout = m.k.Schedule(p.MAC.AckTimeout, func(*sim.Kernel) {
		if m.gen != gen {
			return
		}
		m.onSSRTimeout()
	})
}

// onSSRTimeout retries the association after a randomised backoff (the
// receiver woke but the handshake broke: collision, or membership full).
func (m *LPLNode) onSSRTimeout() {
	if !m.ssrWaiting {
		return
	}
	m.ssrWaiting = false
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.ssrOpenAt)
	m.endOp()
	delay := m.checkInterval + sim.Time(m.k.Rand().Int63n(int64(m.checkInterval)))
	gen := m.gen
	m.k.Schedule(delay, func(*sim.Kernel) {
		if m.gen != gen {
			return
		}
		m.startJoinOp()
	})
}

// openAckWindow listens for the data acknowledgement.
func (m *LPLNode) openAckWindow() {
	p := m.cfg.Profile
	m.ackWaiting = true
	m.ackOpenAt = m.k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	gen := m.gen
	m.ackTimeout = m.k.Schedule(p.MAC.AckTimeout, func(*sim.Kernel) {
		if m.gen != gen {
			return
		}
		m.onAckTimeout()
	})
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
		if len(m.queue) > 0 {
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
	m.inFlight = nil
	m.tracer.Record(now, m.name, trace.KindAckRx, "")
	m.radio.PowerDown()
	if len(m.queue) > 0 && m.burstLeft > 0 {
		// The receiver reopens its window after each ack: continue the
		// burst without a fresh strobe train.
		m.burstLeft--
		m.sendPayload()
		return
	}
	m.endOp()
	if len(m.queue) > 0 {
		m.startDataOp()
	}
}

// onAckTimeout treats the payload as lost (the wake window closed, or
// the frame collided) and retries through a fresh strobe train.
func (m *LPLNode) onAckTimeout() {
	if !m.ackWaiting {
		return
	}
	m.ackWaiting = false
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.ackOpenAt)
	m.stats.AckMissed++
	m.tracer.Record(m.k.Now(), m.name, trace.KindAckMissed, "")

	p := m.cfg.Profile
	if m.inFlight != nil {
		txDur := p.Radio.TxSettle + p.Radio.Airtime(packet.DataHeaderBytes+len(m.inFlight.payload))
		m.ledger.AttributeLoss(energy.LossCollision, m.radio.TxPowerW()*txDur.Seconds())
		if m.inFlight.retries < m.cfg.MaxRetries {
			m.inFlight.retries++
			m.stats.Retries++
			m.queue = append([]txItem{*m.inFlight}, m.queue...)
		} else {
			m.stats.DataDropped++
			m.tracer.Record(m.k.Now(), m.name, trace.KindDataDropped, "")
		}
	}
	m.inFlight = nil
	m.endOp()
	if len(m.queue) > 0 {
		// A randomised pause decorrelates the retry from whatever
		// transaction collided with the lost exchange.
		delay := m.checkInterval/8 + sim.Time(m.k.Rand().Int63n(int64(m.checkInterval/2)))
		gen := m.gen
		m.k.Schedule(delay, func(*sim.Kernel) {
			if m.gen != gen {
				return
			}
			m.startDataOp()
		})
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

	onData   func(rec RxRecord)
	received []RxRecord
	stats    BSStats
	started  bool

	ackBuf       []byte
	strobeAckBuf []byte
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
	bs.scheduleProbe(1)
}

func (bs *LPLBS) scheduleProbe(n uint64) {
	bs.k.ScheduleAt(bs.startAt+sim.Time(n)*bs.checkInterval, func(*sim.Kernel) {
		bs.probe(n)
	})
}

// probe opens one sampling window (skipped when a wake is still being
// serviced across the probe instant).
func (bs *LPLBS) probe(n uint64) {
	bs.scheduleProbe(n + 1)
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
	bs.probeTimeout = bs.k.Schedule(window, func(*sim.Kernel) {
		bs.onProbeIdle()
	})
}

// onProbeIdle closes a silent sampling window: its receiver-on time is
// the protocol's idle-listening cost.
func (bs *LPLBS) onProbeIdle() {
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
	ids := make([]uint8, 0, len(bs.members))
	for id := range bs.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
		bs.tracer.Recordf(bs.k.Now(), "bs", trace.KindSlotReclaim,
			"node=%d member=%d after=%d", id, idx, bs.cfg.ReclaimAfter)
	}
}

// --- wake servicing ------------------------------------------------------

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
	p := bs.cfg.Profile
	bs.sched.Interrupt("bs-strobe-turnaround", p.Cost.BSAckTurnaround, func() {
		if !bs.waking || bs.awaitingPayload {
			return
		}
		bs.radio.Standby()
		bs.strobeAckBuf = packet.StrobeAck{}.AppendMarshal(bs.strobeAckBuf[:0])
		bs.radio.Load(bs.cfg.Plan.NodeAddr(s.NodeID), bs.strobeAckBuf, func() {
			bs.radio.Fire(func() {
				bs.stats.EarlyAcksSent++
				bs.openPayloadWindow()
			})
		})
	})
}

// openPayloadWindow holds the receiver on for the sender's cargo.
func (bs *LPLBS) openPayloadWindow() {
	bs.acking = false
	bs.awaitingPayload = true
	bs.radio.SetRxAddresses(bs.cfg.Plan.BSData, bs.cfg.Plan.BSCtrl)
	bs.radio.StartRx()
	bs.payloadTimeout = bs.k.Schedule(lplPayloadWait, func(*sim.Kernel) {
		bs.onPayloadTimeout()
	})
}

func (bs *LPLBS) onPayloadTimeout() {
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
		bs.tracer.Recordf(bs.k.Now(), "bs", trace.KindSlotGrant,
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
	bs.tracer.Recordf(bs.k.Now(), "bs", trace.KindSlotRelease,
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
	rec := RxRecord{Node: id, Payload: append([]byte(nil), payload[packet.DataHeaderBytes:]...), At: bs.k.Now()}
	bs.received = append(bs.received, rec)
	bs.stats.DataReceived++
	bs.tracer.Recordf(bs.k.Now(), "bs", trace.KindDataRx, "node=%d len=%d", id, len(rec.Payload))

	p := bs.cfg.Profile
	bs.sched.Interrupt("bs-ack-turnaround", p.Cost.BSAckTurnaround, func() {
		bs.radio.Standby()
		bs.ackBuf = packet.Ack{}.AppendMarshal(bs.ackBuf[:0])
		bs.radio.Load(bs.cfg.Plan.NodeAddr(id), bs.ackBuf, func() {
			bs.radio.Fire(func() {
				bs.stats.AcksSent++
				bs.openPayloadWindow()
			})
			bs.sched.PostFn("bs-data-handle", p.Cost.BSDataHandle, func() {
				if bs.onData != nil {
					bs.onData(rec)
				}
			})
		})
	})
}

var (
	_ NodeMAC = (*LPLNode)(nil)
	_ BSMAC   = (*LPLBS)(nil)
)
