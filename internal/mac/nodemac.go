package mac

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
	"repro/internal/trace"
)

// nodeState is the join state machine.
type nodeState int

const (
	stateSearching  nodeState = iota // continuous listen for a first beacon
	stateRequesting                  // beacon-synced, slot request pending
	stateJoined                      // slot held, steady-state duty cycle
	stateCrashed                     // powered off by a fault; waiting for reboot
	stateParked                      // beacon-only: slot released, no data path
)

// NodeConfig parameterises a node-side MAC instance.
type NodeConfig struct {
	Variant Variant
	// Protocol selects the MAC from the registry; empty derives it from
	// Variant ("static"/"dynamic"), preserving the historical knob.
	Protocol Protocol
	// Params tunes the contention protocols (ignored by TDMA).
	Params  Params
	NodeID  uint8
	Profile platform.Profile
	// TxQueueCap and MaxRetries default to the package constants when 0.
	TxQueueCap int
	MaxRetries int
	// Plan is the BAN's address assignment; the zero value selects
	// packet.DefaultPlan(). Co-located networks use distinct plans.
	Plan packet.AddressPlan
	// ClockDriftPPM is the node oscillator's frequency error in parts
	// per million (signed; positive = the node's clock runs slow, so its
	// timers fire late). Every interval the node times off a beacon
	// stretches by this factor; the beacon guard margins exist to absorb
	// exactly this error. Crystals sit at ±20-100 ppm; the MSP430's
	// internal DCO can be off by 1-3% (10000-30000 ppm), which overruns
	// the calibrated guards at long cycles.
	ClockDriftPPM float64
}

// NodeMac is the sensor-node side of the TDMA protocol.
type NodeMac struct {
	k      *sim.Kernel
	cfg    NodeConfig
	name   string
	sched  *tinyos.Sched
	radio  *radio.Radio
	ledger *energy.Ledger
	tracer *trace.Recorder

	state    nodeState
	t0       sim.Time // air-start instant of the current cycle's beacon
	cycle    sim.Time // cycle length from the latest beacon
	slot     int
	onJoined []func()
	// gen invalidates kernel events armed before a crash: every scheduled
	// step carries the generation it was issued under and returns without
	// effect when a crash has bumped it since.
	gen uint64
	// Per-event state of the steady-state protocol steps, each stepped by
	// a handler bound once in NewNodeMac, so a beacon cycle allocates
	// nothing: the kernel-timed steps file their generation (and window
	// stride) by event ID; MCU and radio completions need no state beyond
	// the MAC's own fields.
	windowOpens    sim.Pending[windowArm]
	windowExpiries sim.Pending[uint64]
	slotFires      sim.Pending[uint64]
	ackExpiries    sim.Pending[uint64]
	onWindowOpen   sim.Handler
	onWindowExpiry sim.Handler
	onSlotDue      sim.Handler
	onAckExpiry    sim.Handler
	beaconParsed   func()
	ackProcessed   func()
	dataLoaded     func()
	dataSent       func()
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
	// joinedSince/joinedAccum track slot-holding time for the
	// availability metric.
	joinedSince sim.Time
	joinedAccum sim.Time
	// joinedEver/rejoinArmed/rejoinFrom time the rejoin-latency
	// histogram: once a node has held a slot, every return to the search
	// state (missed-beacon resync, dropped from the slot table, cold
	// boot after a crash) starts a rejoin clock that stops when a slot
	// is held again.
	joinedEver  bool
	rejoinArmed bool
	rejoinFrom  sim.Time

	txQueue
	loading bool // FIFO clock-in in progress
	loaded  bool
	// ctrlBuf is marshal scratch for control frames (SSR, Release). The
	// node sends at most one control frame at a time — SSR only while
	// requesting, Release only while joined — so one buffer suffices.
	ctrlBuf []byte

	missed        int
	windowOpenAt  sim.Time
	windowTimeout sim.EventID
	windowActive  bool
	ackOpenAt     sim.Time
	ackTimeout    sim.EventID
	ackWaiting    bool
	joinListenAt  sim.Time
	ssrNonce      uint16
	ssrScheduled  bool
	// beacon is the last parsed beacon; its Entries slice is reused.
	beacon packet.Beacon

	// Graceful-degradation controls (battery lifecycle).
	stretchEvery   int    // skip our data slot every this-many cycles (0 = off)
	stretchCount   uint64 // joined beacon cycles, driving the stretch cadence
	beaconOnly     bool   // final low-battery mode requested by the node layer
	releasePending bool   // the voluntary slot release still has to fly

	stats Stats
	// carrySent credits a frame transmitted before the last accounting
	// reset whose ack was still pending when the counters zeroed: its
	// eventual resolution (ack, timeout, abandon) increments a counter
	// with no matching DataSent, and the frame-conservation audit must
	// balance that epoch straddle.
	carrySent uint64
	// Accounting for the paper's loss categories.
	controlRxTime sim.Time
	controlTxTime sim.Time
	joinIdleTime  sim.Time
}

// NewNodeMac wires a node MAC over its radio and OS.
func NewNodeMac(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *trace.Recorder) *NodeMac {
	if cfg.TxQueueCap <= 0 {
		cfg.TxQueueCap = DefaultTxQueueCap
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	m := &NodeMac{
		k:      k,
		cfg:    cfg,
		name:   r.Name(),
		sched:  sched,
		radio:  r,
		ledger: ledger,
		tracer: tracer,
		slot:   -1,
	}
	m.onWindowOpen = m.windowOpened
	m.onWindowExpiry = m.windowExpired
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

// windowArm is the state of one armed beacon window.
type windowArm struct {
	gen    uint64
	stride sim.Time
}

// Start implements Mac.
func (m *NodeMac) Start() {
	m.state = stateSearching
	m.radio.SetRxAddresses(m.cfg.Plan.Beacon)
	m.radio.StartRx()
	m.joinListenAt = m.k.Now()
	if m.joinedEver && !m.rejoinArmed {
		// A restart after a crash: the rejoin clock runs from the cold
		// boot, mirroring fault.Outcome.TimeToRejoin.
		m.rejoinArmed = true
		m.rejoinFrom = m.k.Now()
	}
}

// OnJoined implements Mac. Multiple callbacks may be registered; each
// fires on every completed join handshake (including rejoins after a
// missed-beacon resync or a crash/reboot cycle).
func (m *NodeMac) OnJoined(fn func()) { m.onJoined = append(m.onJoined, fn) }

// Joined implements Mac.
func (m *NodeMac) Joined() bool { return m.state == stateJoined }

// Slot implements Mac.
func (m *NodeMac) Slot() int { return m.slot }

// CycleLength implements Mac.
func (m *NodeMac) CycleLength() sim.Time { return m.cycle }

// Stats implements Mac.
func (m *NodeMac) Stats() Stats { return m.stats }

// ControlRxTime reports receiver-on time spent in control windows
// (beacon listening, ack listening) for loss accounting.
func (m *NodeMac) ControlRxTime() sim.Time { return m.controlRxTime }

// ControlTxTime reports transmit time spent on control frames (SSRs).
func (m *NodeMac) ControlTxTime() sim.Time { return m.controlTxTime }

// JoinIdleTime reports the continuous-listen time burned while searching
// for the network (the paper's idle-listening loss).
func (m *NodeMac) JoinIdleTime() sim.Time { return m.joinIdleTime }

// ResetAccounting zeroes statistics and loss accumulators (post-warmup).
func (m *NodeMac) ResetAccounting() {
	m.stats = Stats{}
	m.carrySent = 0
	if m.ackWaiting {
		// A frame sent in the old epoch resolves in the new one.
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

// JoinedTime reports the cumulative time the node has held a slot since
// the last ResetAccounting — the numerator of the availability metric.
func (m *NodeMac) JoinedTime() sim.Time {
	t := m.joinedAccum
	if m.state == stateJoined {
		t += m.k.Now() - m.joinedSince
	}
	return t
}

// noteLeftSlot closes the joined-time interval when the node loses or
// abandons its slot.
func (m *NodeMac) noteLeftSlot() {
	if m.state == stateJoined {
		m.joinedAccum += m.k.Now() - m.joinedSince
	}
}

// Crash models a node power loss: the complete protocol state — join
// status, slot, transmit queue, in-flight frame, timing references — is
// lost, and every armed protocol event is invalidated. The radio, MCU
// and application are crashed separately by the node layer; restart the
// MAC with Start (a cold boot through the normal search/SSR join path).
func (m *NodeMac) Crash() {
	m.gen++
	if m.windowActive {
		m.windowExpiries.Cancel(m.k, m.windowTimeout)
		m.windowActive = false
	}
	m.closeAckWindow()
	m.noteLeftSlot()
	m.state = stateCrashed
	m.slot = -1
	m.missed = 0
	m.queue.Reset()
	m.loading = false
	m.loaded = false
	m.dropInFlight()
	m.ssrScheduled = false
	// beaconOnly survives the crash on purpose: it mirrors the node's
	// battery level, which a power cycle does not replenish — a rebooted
	// beacon-only node parks again right after its first beacon.
	m.releasePending = false
	m.tracer.Record(m.k.Now(), m.name, trace.KindCrash, "")
}

// SetSlotStretch makes the node sleep through its data slot on every
// k-th beacon cycle — the duty-cycle-stretching rung of the battery
// graceful-degradation ladder. k < 2 disables stretching.
func (m *NodeMac) SetSlotStretch(k int) {
	if k < 2 {
		m.stretchEvery = 0
		return
	}
	m.stretchEvery = k
}

// EnterBeaconOnly drops the node to the final degradation rung: the
// application is already stopped by the caller; the MAC hands its slot
// back to the base station (so the dynamic cycle compacts immediately)
// and then keeps only beacon synchronisation alive. The mode is sticky —
// it mirrors battery charge, which never comes back.
func (m *NodeMac) EnterBeaconOnly() {
	if m.beaconOnly {
		return
	}
	m.beaconOnly = true
	switch m.state {
	case stateJoined:
		m.releasePending = true // announce in our own slot, then park
	case stateRequesting:
		m.park()
	case stateSearching, stateCrashed, stateParked:
		// Searching parks on the next beacon; crashed parks after the
		// reboot's first beacon.
	}
}

// parkBeaconEvery is the parked node's doze ratio: a beacon-only node
// wakes for one beacon window in this many cycles and dead-reckons
// across the gap. Beacon listening dominates a parked node's budget
// (there is no other traffic left), so the ratio — not the parking
// itself — is what makes the final degradation rung cheap; the residual
// drift accumulated over the dozed cycles stays far inside the guard
// margins at crystal tolerances.
const parkBeaconEvery = 8

// closeAckWindow tears down a pending acknowledgement wait when the
// protocol state that owned it is being reset (crash, rejoin, park).
// The transmitted frame can no longer be resolved — its ack would be
// ignored and its timeout must not fire against the fresh state — so it
// is counted as abandoned, keeping the frame-conservation law exact:
// without this, a stale ackTimeout would increment AckMissed with no
// in-flight frame to retry or drop.
func (m *NodeMac) closeAckWindow() {
	if !m.ackWaiting {
		return
	}
	m.ackWaiting = false
	m.ackExpiries.Cancel(m.k, m.ackTimeout)
	m.stats.Abandoned++
}

// park settles into beacon-only mode: no slot, no data path, but beacon
// windows stay armed so the node keeps network time (and stays visible
// to the operator through beacon-rx events).
func (m *NodeMac) park() {
	m.closeAckWindow()
	m.noteLeftSlot()
	m.state = stateParked
	m.slot = -1
	m.releasePending = false
	m.queue.Reset()
	m.loading = false
	m.loaded = false
	m.dropInFlight()
	m.ssrScheduled = false
	m.tracer.Record(m.k.Now(), m.name, trace.KindParked, "")
}

// txItem is one queued payload with its retransmission count.
type txItem struct {
	payload    []byte
	retries    int
	enqueuedAt sim.Time
}

// txQueue is a node MAC's transmit queue: the queued frames, the frame
// in flight (loaded or awaiting its ack, kept for a retry), and the
// payload buffers finished frames return, so a steady stream of Send
// calls allocates nothing.
type txQueue struct {
	queue       sim.FIFO[txItem]
	inFlight    txItem
	hasInFlight bool
	spare       [][]byte
}

// enqueue copies payload into a recycled buffer and queues it.
func (q *txQueue) enqueue(payload []byte, at sim.Time) {
	var buf []byte
	if n := len(q.spare); n > 0 {
		buf = q.spare[n-1]
		q.spare = q.spare[:n-1]
	}
	buf = append(buf[:0], payload...)
	q.queue.Push(txItem{payload: buf, enqueuedAt: at})
}

// launch puts the head of the queue in flight.
func (q *txQueue) launch() {
	q.inFlight, q.hasInFlight = q.queue.Pop(), true
}

// finishInFlight retires the in-flight frame for good (acknowledged or
// dropped), returning its payload buffer for reuse.
func (q *txQueue) finishInFlight() {
	q.spare = append(q.spare, q.inFlight.payload[:0])
	q.dropInFlight()
}

// dropInFlight forgets the in-flight frame. Its buffer is left to the
// collector: the radio may still hold the frame in its FIFO.
func (q *txQueue) dropInFlight() {
	q.inFlight = txItem{}
	q.hasInFlight = false
}

// Send implements Mac. The payload is copied into a recycled buffer.
//
//hot:path
func (m *NodeMac) Send(payload []byte) bool {
	if m.queue.Len() >= m.cfg.TxQueueCap {
		m.stats.QueueDrops++
		return false
	}
	m.enqueue(payload, m.k.Now())
	m.tryLoad()
	return true
}

// --- protocol timing helpers -------------------------------------------

// slotDuration reports the data-slot length under the current cycle.
func (m *NodeMac) slotDuration() sim.Time {
	if m.cfg.Variant == Dynamic {
		return m.cfg.Profile.MAC.DynamicSlotDuration
	}
	return m.cycle / sim.Time(m.cfg.Profile.MAC.MaxStaticSlots+1)
}

// slotStart reports the offset of slot i from the beacon air start. Slot
// 0 begins after the SB (static) / SB+ES (dynamic) control region, which
// both variants size as one slot.
func (m *NodeMac) slotStart(i int) sim.Time {
	return m.slotDuration() * sim.Time(i+1)
}

// guard reports the variant's beacon guard margin.
func (m *NodeMac) guard() sim.Time {
	if m.cfg.Variant == Dynamic {
		return m.cfg.Profile.MAC.DynamicGuard
	}
	return m.cfg.Profile.MAC.StaticGuard
}

// local converts an interval the node times with its own oscillator into
// the true elapsed simulation time, applying the clock drift.
func (m *NodeMac) local(d sim.Time) sim.Time {
	if approx.Unset(m.cfg.ClockDriftPPM) {
		return d
	}
	return sim.Time(float64(d) * (1 + m.cfg.ClockDriftPPM*1e-6))
}

// parseCycles reports the variant's beacon-parse cost.
func (m *NodeMac) parseCycles() int64 {
	if m.cfg.Variant == Dynamic {
		return m.cfg.Profile.Cost.BeaconParseDynamic
	}
	return m.cfg.Profile.Cost.BeaconParseStatic
}

// maxBeaconPayload bounds the beacon size for window-timeout sizing.
func (m *NodeMac) maxBeaconPayload() int {
	if m.cfg.Variant == Dynamic {
		return m.cfg.Profile.MAC.BeaconBasePayloadBytes +
			m.cfg.Profile.MAC.SlotEntryBytes*m.cfg.Profile.MAC.MaxDynamicSlots
	}
	return m.cfg.Profile.MAC.BeaconBasePayloadBytes +
		m.cfg.Profile.MAC.GrantEntryBytes*2
}

// --- frame dispatch ------------------------------------------------------

//hot:path
func (m *NodeMac) onFrame(f packet.Frame) {
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

// handleBeacon runs (in interrupt context) after the beacon's FIFO drain.
func (m *NodeMac) handleBeacon(b packet.Beacon, payloadLen int) {
	now := m.k.Now()
	frameEnd := m.radio.LastRxFrameEnd()
	airStart := frameEnd - m.cfg.Profile.Radio.Airtime(payloadLen)

	// Close the listen window.
	m.radio.PowerDown()
	if m.windowActive {
		m.windowExpiries.Cancel(m.k, m.windowTimeout)
		m.windowActive = false
		m.accountControlRx(now - m.windowOpenAt)
	} else if m.state == stateSearching {
		// The whole continuous search listen is idle listening except
		// the beacon frame itself.
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
		// A beacon-only node never requests a slot: synchronise and park.
		m.park()
	}

	// Grant / slot-table scan.
	found := false
	for _, e := range b.Entries {
		if e.NodeID == m.cfg.NodeID {
			found = true
			if m.state == stateParked {
				// We released this slot; a stale table row (our release
				// frame lost, silence reclaim still pending) must not
				// re-join us.
				break
			}
			if m.state != stateJoined {
				m.slot = int(e.Slot)
				m.state = stateJoined
				m.joinedSince = now
				m.ssrScheduled = false
				if m.rejoinArmed {
					m.tracer.Observe(m.name, trace.HistRejoin, now-m.rejoinFrom)
					m.rejoinArmed = false
				}
				m.joinedEver = true
				metrics.Record1(m.tracer, now, m.name, trace.KindJoined, "slot=%d", m.slot)
				for _, fn := range m.onJoined {
					fn()
				}
			} else {
				m.slot = int(e.Slot)
			}
			break
		}
	}
	if m.cfg.Variant == Dynamic && m.state == stateJoined && !found {
		// The base station no longer lists us: rejoin.
		m.rejoin()
		return
	}

	// The beacon-parse task models the per-cycle OS/MAC work; follow-up
	// actions run when it completes.
	m.sched.Interrupt("beacon-parse", m.parseCycles(), m.beaconParsed)
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
		if m.stretchEvery >= 2 {
			m.stretchCount++
			if m.stretchCount%uint64(m.stretchEvery) == 0 {
				// Duty-cycle stretch: sleep through our slot this cycle.
				// The queue keeps filling; its cap converts the stretch
				// into deterministic tail drops instead of latency creep.
				m.stats.SlotsSkipped++
				metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindSlotSkip, "cycle=%d", m.stretchCount)
				return
			}
		}
		m.tryLoad()
		m.scheduleSlotFire()
	}
}

// windowStride reports how many cycles ahead the next beacon window
// sits: 1 normally, the doze ratio when parked.
func (m *NodeMac) windowStride() sim.Time {
	if m.state == stateParked {
		return parkBeaconEvery
	}
	return 1
}

// scheduleNextWindow arms the receiver for the next expected beacon.
//
//hot:path
func (m *NodeMac) scheduleNextWindow() {
	p := m.cfg.Profile
	stride := m.windowStride()
	openAt := m.t0 + m.local(stride*m.cycle-m.guard()-p.Radio.RxSettle)
	now := m.k.Now()
	if openAt <= now {
		openAt = now // degenerate cycles: open immediately
	}
	m.windowOpens.ScheduleAt(m.k, openAt, m.onWindowOpen, windowArm{gen: m.gen, stride: stride})
}

// windowOpened turns the receiver on for an expected beacon and arms the
// window's timeout.
//
//hot:path
func (m *NodeMac) windowOpened(k *sim.Kernel) {
	a := m.windowOpens.Take(k)
	if m.gen != a.gen {
		return // armed before a crash
	}
	if m.windowActive || m.state == stateSearching {
		return
	}
	p := m.cfg.Profile
	m.windowActive = true
	m.windowOpenAt = k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.Beacon)
	m.radio.StartRx()
	// The timeout sits one guard past the locally-expected beacon so the
	// tolerance to clock error is symmetric: ±guard/cycle for early and
	// late clocks alike. A saturated MCU can delay the whole pipeline
	// past the nominal deadline; clamp so the window closes immediately
	// instead of scheduling into the past.
	deadline := m.t0 + m.local(a.stride*m.cycle) + m.guard() +
		p.Radio.Airtime(m.maxBeaconPayload()) +
		p.Radio.RxClockOut(m.maxBeaconPayload()) + 500*sim.Microsecond
	if deadline < k.Now() {
		deadline = k.Now()
	}
	m.windowTimeout = m.windowExpiries.ScheduleAt(k, deadline, m.onWindowExpiry, a.gen)
}

// windowExpired runs a beacon window's timeout.
//
//hot:path
func (m *NodeMac) windowExpired(k *sim.Kernel) {
	if gen := m.windowExpiries.Take(k); m.gen != gen {
		return // armed before a crash
	}
	m.onWindowTimeout()
}

// onWindowTimeout handles a silent beacon window.
func (m *NodeMac) onWindowTimeout() {
	if !m.windowActive {
		return
	}
	m.windowActive = false
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.windowOpenAt)
	m.stats.BeaconsMissed++
	m.missed++
	if m.missed >= missedBeaconRejoinThreshold {
		m.rejoin()
		return
	}
	// Dead-reckon the next cycle from the last good reference; drift
	// compounds here, one silent cycle (or dozed stretch) at a time.
	m.t0 += m.local(m.windowStride() * m.cycle)
	m.scheduleNextWindow()
}

// rejoin abandons the slot and restarts the join procedure.
func (m *NodeMac) rejoin() {
	m.stats.Rejoins++
	m.closeAckWindow()
	m.noteLeftSlot()
	if !m.rejoinArmed {
		m.rejoinArmed = true
		m.rejoinFrom = m.k.Now()
	}
	m.state = stateSearching
	m.slot = -1
	m.missed = 0
	m.loaded = false
	m.dropInFlight()
	m.ssrScheduled = false
	m.radio.SetRxAddresses(m.cfg.Plan.Beacon)
	m.radio.StartRx()
	m.joinListenAt = m.k.Now()
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
	if m.cfg.Variant == Dynamic {
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
	m.ssrNonce++
	m.ctrlPreps.Push(ctrlPrep{attempt: arm.attempt, ssr: packet.SSR{NodeID: m.cfg.NodeID, Nonce: m.ssrNonce}})
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
	p := m.cfg.Profile
	m.stats.SSRSent++
	m.ssrScheduled = false
	txDur := p.Radio.TxSettle + p.Radio.Airtime(packet.SSRBytes)
	m.controlTxTime += txDur
	m.ledger.AttributeLoss(energy.LossControl, m.radio.TxPowerW()*txDur.Seconds())
	metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindSSRTx, "nonce=%d", m.ssrNonce)
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
func (m *NodeMac) onRelSent() {
	p := m.cfg.Profile
	m.stats.ReleasesSent++
	txDur := p.Radio.TxSettle + p.Radio.Airtime(packet.ReleaseBytes)
	m.controlTxTime += txDur
	m.ledger.AttributeLoss(energy.LossControl, m.radio.TxPowerW()*txDur.Seconds())
	metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindSlotRelease, "slot=%d", m.slot)
	m.radio.PowerDown()
	m.park()
}

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
	nextWindow := m.t0 + m.local(m.cycle-m.guard()-p.Radio.RxSettle)
	if m.k.Now()+loadDur+margin >= nextWindow && m.cycle > 0 {
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
	metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindSlotStart, "slot=%d", m.slot)
	if m.hasInFlight {
		lat := m.k.Now() - m.inFlight.enqueuedAt
		m.stats.addLatency(lat)
		m.tracer.Observe(m.name, trace.HistSlotWait, lat)
	}
	m.radio.Fire(m.dataSent)
}

// onDataSent opens the acknowledgement window once the data burst ends.
//
//hot:path
func (m *NodeMac) onDataSent() {
	if !m.hasInFlight {
		panic(fmt.Sprintf("mac %s: fire done with nil inFlight: state=%v stats=%+v", m.name, m.state, m.stats))
	}
	m.stats.DataSent++
	metrics.Record1(m.tracer, m.k.Now(), m.name, trace.KindDataTx, "len=%d", len(m.inFlight.payload))
	m.openAckWindow()
}

// openAckWindow listens for the base station's acknowledgement.
func (m *NodeMac) openAckWindow() {
	p := m.cfg.Profile
	m.ackWaiting = true
	m.ackOpenAt = m.k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.NodeAddr(m.cfg.NodeID))
	m.radio.StartRx()
	m.ackTimeout = m.ackExpiries.Schedule(m.k, p.MAC.AckTimeout, m.onAckExpiry, m.gen)
}

// ackExpired runs an acknowledgement window's timeout.
//
//hot:path
func (m *NodeMac) ackExpired(k *sim.Kernel) {
	if gen := m.ackExpiries.Take(k); m.gen != gen {
		return // armed before a crash
	}
	m.onAckTimeout()
}

// handleAck closes the acknowledgement window on success.
func (m *NodeMac) handleAck() {
	if !m.ackWaiting {
		return
	}
	m.ackWaiting = false
	m.ackExpiries.Cancel(m.k, m.ackTimeout)
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.ackOpenAt)
	m.tracer.Observe(m.name, trace.HistTxToAck, m.k.Now()-m.ackOpenAt)
	m.stats.DataAcked++
	if m.hasInFlight {
		m.finishInFlight()
	}
	m.tracer.Record(m.k.Now(), m.name, trace.KindAckRx, "")
	m.sched.Interrupt("ack-process", m.cfg.Profile.Cost.AckProcess, m.ackProcessed)
}

// onAckTimeout treats the frame as lost: its transmit energy was wasted
// (the paper's collision loss) and the frame is retried or dropped.
func (m *NodeMac) onAckTimeout() {
	if !m.ackWaiting {
		return
	}
	m.ackWaiting = false
	m.radio.PowerDown()
	m.accountControlRx(m.k.Now() - m.ackOpenAt)
	m.stats.AckMissed++
	m.tracer.Record(m.k.Now(), m.name, trace.KindAckMissed, "")

	p := m.cfg.Profile
	if m.hasInFlight {
		txDur := p.Radio.TxSettle + p.Radio.Airtime(len(m.inFlight.payload))
		m.ledger.AttributeLoss(energy.LossCollision, m.radio.TxPowerW()*txDur.Seconds())
		if m.inFlight.retries < m.cfg.MaxRetries {
			// Requeue at the front; tryLoad applies its window-margin
			// checks before touching the radio again.
			m.inFlight.retries++
			m.stats.Retries++
			m.queue.PushFront(m.inFlight)
			m.dropInFlight()
		} else {
			// Retries exhausted: the frame is gone for good.
			m.stats.DataDropped++
			m.tracer.Record(m.k.Now(), m.name, trace.KindDataDropped, "")
			m.finishInFlight()
		}
	}
	m.tryLoad()
}

// accountControlRx charges a closed receive window to the control
// overhead loss category.
func (m *NodeMac) accountControlRx(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("mac %s: negative control window", m.name))
	}
	m.controlRxTime += d
	m.ledger.AttributeLoss(energy.LossControl, m.radio.RxPowerW()*d.Seconds())
}

// --- runtime audit accessors ---------------------------------------------

// Generation reports the crash generation counter. It only ever grows
// (each crash bumps it to invalidate stale kernel events), which the
// audit engine checks across crash/reboot cycles.
func (m *NodeMac) Generation() uint64 { return m.gen }

// AckPending reports whether a transmitted data frame is still awaiting
// its acknowledgement.
func (m *NodeMac) AckPending() bool { return m.ackWaiting }

// AuditFrame checks the frame-conservation laws against the node's live
// counters and returns a detail string per broken law (nil when they
// hold). Safe to call at any instant: the counters and the ack window
// are updated atomically within each kernel event.
func (m *NodeMac) AuditFrame() []string {
	return AuditFrameStats(m.stats, m.carrySent, m.ackWaiting)
}

// AuditFrameStats is the pure form of the frame-conservation laws, over
// a counter snapshot: every missed ack became a retry or a terminal
// drop, and every transmitted burst is resolved (acked, timed out or
// abandoned) except at most one awaiting its ack. carrySent credits a
// frame sent before the last accounting reset whose resolution lands in
// the current epoch (see NodeMac.ResetAccounting).
func AuditFrameStats(s Stats, carrySent uint64, ackPending bool) []string {
	var v []string
	if s.AckMissed != s.Retries+s.DataDropped {
		v = append(v, fmt.Sprintf("AckMissed %d != Retries %d + DataDropped %d",
			s.AckMissed, s.Retries, s.DataDropped))
	}
	pending := uint64(0)
	if ackPending {
		pending = 1
	}
	if s.DataSent+carrySent != s.DataAcked+s.AckMissed+s.Abandoned+pending {
		v = append(v, fmt.Sprintf(
			"DataSent %d + carried %d != DataAcked %d + AckMissed %d + Abandoned %d + pending %d",
			s.DataSent, carrySent, s.DataAcked, s.AckMissed, s.Abandoned, pending))
	}
	return v
}

// AuditSlot checks grant-window containment from the node's own view: a
// joined node's data slot, as timed against the cycle length it learned
// from its reference beacon, must end inside that cycle. Slot index and
// cycle always come from the same beacon (dead reckoning keeps both),
// so the law holds through compactions the node has not yet heard; a
// violation means the base station granted a slot outside the frame it
// advertised.
func (m *NodeMac) AuditSlot() []string {
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

// AuditProtocol implements NodeMAC: the TDMA node's protocol-specific
// laws are the slot-containment checks.
func (m *NodeMac) AuditProtocol() []string { return m.AuditSlot() }

var _ Mac = (*NodeMac)(nil)
