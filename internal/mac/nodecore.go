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
	// Protocol selects the MAC.
	Protocol Protocol
	// Params tunes the contention protocols (ignored by TDMA).
	Params Params
	NodeID uint8
	// Profile is the node's hardware, shared by reference: every node of
	// a network points at one profile, which must not change once a MAC
	// is built on it.
	Profile *platform.Profile
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

// nodeCore is the state and behaviour every node MAC shares: the wiring,
// the join and lifecycle bookkeeping, the loss accounting, the transmit
// queue and the acknowledgement window. NodeMac, CSMANode and LPLNode
// embed it by value and add only their channel-access step. Crash, park
// and rejoin clear the protocol's own state through resetAccess, the one
// function a protocol binds at construction.
type nodeCore struct {
	k      *sim.Kernel
	cfg    NodeConfig
	name   string
	sched  *tinyos.Sched
	radio  *radio.Radio
	ledger *energy.Ledger
	tracer *metrics.Recorder
	trace  metrics.NodeID // name's ID in tracer

	state nodeState
	// slot is the index the base station granted (a TDMA slot, a CSMA
	// membership); -1 while none is held, and always for LPL.
	slot     int
	onJoined []func()
	// joinedInline backs onJoined for the usual one or two callbacks.
	joinedInline [2]func()
	// gen invalidates kernel events armed before a crash: every scheduled
	// step that a crash does not cancel carries the generation it was
	// issued under and returns without effect when a crash has bumped it
	// since.
	gen         uint64
	resetAccess func()
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
	// dataHeader is the size of the sender-ID header the contention MACs
	// prepend to a data payload (0 for TDMA, which attributes frames by
	// slot timing).
	dataHeader int
	loading    bool // FIFO clock-in of the next frame in progress
	loaded     bool // a frame sits in the radio FIFO
	// dataBuf/ctrlBuf are marshal scratch for the sender-ID-framed data
	// payload and the control frames. A node sends at most one control
	// frame at a time, so one buffer suffices.
	dataBuf  []byte
	ctrlBuf  []byte
	ssrNonce uint16

	ack rxWindow // the data frame's acknowledgement wait

	// Graceful-degradation controls (battery lifecycle).
	stretchEvery   int    // skip every this-many transmission opportunities (0 = off)
	stretchCount   uint64 // opportunities seen, driving the stretch cadence
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

// init wires the core over its radio and OS and applies the config
// defaults. resetAccess clears the protocol's access state whenever
// crash, park or rejoin tears the node's protocol state down.
func (c *nodeCore) init(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder, resetAccess func()) {
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	c.k, c.cfg, c.name, c.sched, c.radio = k, cfg, r.Name(), sched, r
	c.ledger, c.tracer, c.trace = ledger, tracer, tracer.ID(c.name)
	c.slot = -1
	c.onJoined = c.joinedInline[:0]
	c.resetAccess = resetAccess
	c.dataBuf, c.ctrlBuf = c.txQueue.init(cfg.Profile.Radio.MaxPayloadBytes)
}

// OnJoined implements Mac. Multiple callbacks may be registered; each
// fires on every completed join handshake (including rejoins after a
// missed-beacon resync or a crash/reboot cycle).
func (c *nodeCore) OnJoined(fn func()) { c.onJoined = append(c.onJoined, fn) }

// Joined implements Mac.
func (c *nodeCore) Joined() bool { return c.state == stateJoined }

// Slot implements Mac: the granted slot or membership index, -1 when the
// node holds none.
func (c *nodeCore) Slot() int { return c.slot }

// Stats implements Mac.
func (c *nodeCore) Stats() Stats { return c.stats }

// ControlRxTime reports receiver-on time spent in control windows
// (beacon, CCA, strobe-gap and ack listening) for loss accounting.
func (c *nodeCore) ControlRxTime() sim.Time { return c.controlRxTime }

// ControlTxTime reports transmit time spent on control frames (SSRs,
// releases, strobes).
func (c *nodeCore) ControlTxTime() sim.Time { return c.controlTxTime }

// JoinIdleTime reports the continuous-listen time burned while searching
// for the network (the paper's idle-listening loss).
func (c *nodeCore) JoinIdleTime() sim.Time { return c.joinIdleTime }

// Generation reports the crash generation counter. It only ever grows
// (each crash bumps it to invalidate stale kernel events), which the
// audit engine checks across crash/reboot cycles.
func (c *nodeCore) Generation() uint64 { return c.gen }

// ResetAccounting zeroes statistics and loss accumulators (post-warmup).
func (c *nodeCore) ResetAccounting() {
	c.stats = Stats{}
	c.carrySent = 0
	if c.ack.open {
		// A frame sent in the old epoch resolves in the new one.
		c.carrySent = 1
	}
	c.controlRxTime = 0
	c.controlTxTime = 0
	c.joinIdleTime = 0
	c.joinedAccum = 0
	if c.state == stateJoined {
		c.joinedSince = c.k.Now()
	}
}

// JoinedTime reports the cumulative time the node has held a slot since
// the last ResetAccounting — the numerator of the availability metric.
func (c *nodeCore) JoinedTime() sim.Time {
	t := c.joinedAccum
	if c.state == stateJoined {
		t += c.k.Now() - c.joinedSince
	}
	return t
}

// noteLeftSlot closes the joined-time interval when the node loses or
// abandons its slot.
func (c *nodeCore) noteLeftSlot() {
	if c.state == stateJoined {
		c.joinedAccum += c.k.Now() - c.joinedSince
	}
}

// startRejoinClock starts timing a rejoin unless one is already timed.
func (c *nodeCore) startRejoinClock() {
	if !c.rejoinArmed {
		c.rejoinArmed = true
		c.rejoinFrom = c.k.Now()
	}
}

// join completes the handshake: the node holds slot (-1 when the
// protocol grants none) from now on.
func (c *nodeCore) join(slot int) {
	now := c.k.Now()
	c.slot = slot
	c.state = stateJoined
	c.joinedSince = now
	if c.rejoinArmed {
		c.tracer.Observe(c.trace, metrics.HistRejoin, now-c.rejoinFrom)
		c.rejoinArmed = false
	}
	c.joinedEver = true
	if slot < 0 {
		c.tracer.RecordID(now, c.trace, metrics.KindJoined, "")
	} else {
		metrics.Record1(c.tracer, now, c.trace, metrics.KindJoined, "slot=%d", slot)
	}
	for _, fn := range c.onJoined {
		fn()
	}
}

// leave tears down the slot and the frame in flight: crash, park and
// rejoin all pass through here.
func (c *nodeCore) leave(to nodeState) {
	c.resetAccess()
	if c.ack.close(c.k) {
		// The frame in flight can no longer be resolved: its ack would be
		// ignored and its timeout must not fire against the fresh state.
		// Counting it abandoned keeps the frame-conservation law exact.
		c.stats.Abandoned++
	}
	c.noteLeftSlot()
	c.state = to
	c.slot = -1
	c.loaded = false
	c.dropInFlight()
}

// halt ends the data path: the queue empties and no release is owed.
func (c *nodeCore) halt(to nodeState, kind metrics.Kind) {
	c.leave(to)
	c.queue.Reset()
	c.loading = false
	c.releasePending = false
	c.tracer.RecordID(c.k.Now(), c.trace, kind, "")
}

// Crash models a node power loss: the complete protocol state — join
// status, slot, transmit queue, in-flight frame, timing references — is
// lost, and every armed protocol event is invalidated. The radio, MCU
// and application are crashed separately by the node layer; restart the
// MAC with Start (a cold boot through the normal join path).
//
// beaconOnly survives the crash on purpose: it mirrors the node's
// battery level, which a power cycle does not replenish — a rebooted
// beacon-only node parks again right away.
func (c *nodeCore) Crash() {
	c.gen++
	c.halt(stateCrashed, metrics.KindCrash)
}

// park settles into beacon-only mode: no slot, no data path.
func (c *nodeCore) park() { c.halt(stateParked, metrics.KindParked) }

// SetSlotStretch makes the node sleep through every k-th transmission
// opportunity — the duty-cycle-stretching rung of the battery
// graceful-degradation ladder. k < 2 disables stretching.
func (c *nodeCore) SetSlotStretch(k int) {
	if k < 2 {
		k = 0
	}
	c.stretchEvery = k
}

// skipStretched counts one transmission opportunity and reports whether
// the duty-cycle stretch sleeps through it. The queue keeps filling; its
// cap converts the stretch into deterministic tail drops instead of
// latency creep. format renders the opportunity count in the trace.
func (c *nodeCore) skipStretched(format string) bool {
	if c.stretchEvery < 2 {
		return false
	}
	c.stretchCount++
	if c.stretchCount%uint64(c.stretchEvery) != 0 {
		return false
	}
	c.stats.SlotsSkipped++
	metrics.Record1(c.tracer, c.k.Now(), c.trace, metrics.KindSlotSkip, format, c.stretchCount)
	return true
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

// txBuffers is how many payload buffers a queue starts with: a full
// queue plus the frame in flight, all a node holds in steady state.
const txBuffers = DefaultTxQueueCap + 1

// init gives the queue txBuffers empty payload buffers of size bytes
// each, carved out of one allocation, and returns two more from it for
// the node's data and control frame scratch. A longer payload outgrows
// its buffer by append, and a queue that runs out makes new buffers the
// same way.
func (q *txQueue) init(size int) (data, ctrl []byte) {
	slab := make([]byte, (txBuffers+2)*size)
	bufs := make([][]byte, txBuffers+2)
	for i := range bufs {
		bufs[i] = slab[i*size : i*size : (i+1)*size]
	}
	q.spare = bufs[:txBuffers]
	return bufs[txBuffers], bufs[txBuffers+1]
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

// Send implements Mac: it queues a copy of payload, or counts a drop when
// the queue is full.
//
//hot:path
func (c *nodeCore) Send(payload []byte) bool {
	if c.queue.Len() >= DefaultTxQueueCap {
		c.stats.QueueDrops++
		return false
	}
	c.enqueue(payload, c.k.Now())
	return true
}

// noteQueueDelay records the in-flight frame's Send-to-burst queueing
// delay as its burst starts.
func (c *nodeCore) noteQueueDelay() {
	if !c.hasInFlight {
		return
	}
	lat := c.k.Now() - c.inFlight.enqueuedAt
	c.stats.LatencySum += lat
	c.stats.LatencyCount++
	c.stats.LatencyMax = max(c.stats.LatencyMax, lat)
	c.tracer.Observe(c.trace, metrics.HistSlotWait, lat)
}

// idFrame marshals the in-flight payload behind the sender-ID header.
func (c *nodeCore) idFrame() []byte {
	c.dataBuf = append(c.dataBuf[:0], c.cfg.NodeID)
	c.dataBuf = append(c.dataBuf, c.inFlight.payload...)
	return c.dataBuf
}

// nextSSR numbers a fresh slot request.
func (c *nodeCore) nextSSR() packet.SSR {
	c.ssrNonce++
	return packet.SSR{NodeID: c.cfg.NodeID, Nonce: c.ssrNonce}
}

// ssrFlown accounts a slot request once it has flown.
func (c *nodeCore) ssrFlown() {
	c.stats.SSRSent++
	c.chargeControlTx(packet.SSRBytes)
	metrics.Record1(c.tracer, c.k.Now(), c.trace, metrics.KindSSRTx, "nonce=%d", c.ssrNonce)
}

// dataFlown counts the data burst that just ended and listens for its
// acknowledgement; expiry is the protocol's ack-timeout handler.
func (c *nodeCore) dataFlown(expiry sim.Handler) {
	if !c.hasInFlight {
		panic(fmt.Sprintf("mac %s: fire done with nil inFlight: state=%v stats=%+v", c.name, c.state, c.stats))
	}
	c.stats.DataSent++
	metrics.Record1(c.tracer, c.k.Now(), c.trace, metrics.KindDataTx, "len=%d", c.dataHeader+len(c.inFlight.payload))
	c.listenFor(&c.ack, c.cfg.Profile.MAC.AckTimeout, expiry)
}

// ackArrived closes the acknowledgement window on success and retires
// the frame. It reports false when no window was open.
func (c *nodeCore) ackArrived() bool {
	if !c.ack.close(c.k) {
		return false
	}
	now := c.k.Now()
	c.endWindow(&c.ack)
	c.tracer.Observe(c.trace, metrics.HistTxToAck, now-c.ack.at)
	c.stats.DataAcked++
	if c.hasInFlight {
		c.finishInFlight()
	}
	c.tracer.RecordID(now, c.trace, metrics.KindAckRx, "")
	return true
}

// ackMissed treats the frame as lost when its acknowledgement window
// times out: its transmit energy was wasted (the paper's collision loss)
// and the frame is requeued at the front for a retry, or dropped once
// its retries are exhausted. It reports false when no window was open.
func (c *nodeCore) ackMissed() bool {
	if !c.ack.expire() {
		return false
	}
	now := c.k.Now()
	c.endWindow(&c.ack)
	c.stats.AckMissed++
	c.tracer.RecordID(now, c.trace, metrics.KindAckMissed, "")
	if !c.hasInFlight {
		return true
	}
	p := c.cfg.Profile
	txDur := p.Radio.TxSettle + p.Radio.Airtime(c.dataHeader+len(c.inFlight.payload))
	c.ledger.AttributeLoss(energy.LossCollision, c.radio.TxPowerW()*txDur.Seconds())
	if c.inFlight.retries < DefaultMaxRetries {
		c.inFlight.retries++
		c.stats.Retries++
		c.queue.PushFront(c.inFlight)
		c.dropInFlight()
	} else {
		c.stats.DataDropped++
		c.tracer.RecordID(now, c.trace, metrics.KindDataDropped, "")
		c.finishInFlight()
	}
	return true
}

// rxWindow is one timed listen: the receiver stays on from at until a
// frame closes the window or its timeout expires. The node core's ack
// wait, the beacon window and LPL's strobe gap and SSR wait are all one,
// and so is the LPL base station's payload window.
type rxWindow struct {
	open    bool
	at      sim.Time
	timeout sim.EventID
}

// close ends the window before its timeout, which it cancels. It
// reports whether the window was open.
func (w *rxWindow) close(k *sim.Kernel) bool {
	if !w.open {
		return false
	}
	w.open = false
	k.Cancel(w.timeout)
	return true
}

// expire ends the window from its timeout handler. It reports whether
// the window was open.
func (w *rxWindow) expire() bool {
	if !w.open {
		return false
	}
	w.open = false
	return true
}

// listenFor opens w on the node's own address for d; expiry is its
// timeout handler.
func (c *nodeCore) listenFor(w *rxWindow, d sim.Time, expiry sim.Handler) {
	w.open, w.at = true, c.k.Now()
	c.radio.SetRxAddresses(c.cfg.Plan.NodeAddr(c.cfg.NodeID))
	c.radio.StartRx()
	w.timeout = c.k.Schedule(d, expiry)
}

// endWindow powers the receiver down after w closed and charges its
// listen time to the control overhead.
func (c *nodeCore) endWindow(w *rxWindow) {
	c.radio.PowerDown()
	c.accountControlRx(c.k.Now() - w.at)
}

// accountControlRx charges a closed receive window to the control
// overhead loss category.
func (c *nodeCore) accountControlRx(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("mac %s: negative control window", c.name))
	}
	c.controlRxTime += d
	c.ledger.AttributeLoss(energy.LossControl, c.radio.RxPowerW()*d.Seconds())
}

// chargeControlTx charges an n-byte control burst (settle plus airtime)
// to the control overhead loss category.
func (c *nodeCore) chargeControlTx(n int) {
	p := c.cfg.Profile
	txDur := p.Radio.TxSettle + p.Radio.Airtime(n)
	c.controlTxTime += txDur
	c.ledger.AttributeLoss(energy.LossControl, c.radio.TxPowerW()*txDur.Seconds())
}

// AuditFrame checks the frame-conservation laws against the node's live
// counters and returns a detail string per broken law (nil when they
// hold). Safe to call at any instant: the counters and the ack window
// are updated atomically within each kernel event.
func (c *nodeCore) AuditFrame() []string {
	return AuditFrameStats(c.stats, c.carrySent, c.ack.open)
}

// AuditFrameStats is the pure form of the frame-conservation laws, over
// a counter snapshot: every missed ack became a retry or a terminal
// drop, and every transmitted burst is resolved (acked, timed out or
// abandoned) except at most one awaiting its ack. carrySent credits a
// frame sent before the last accounting reset whose resolution lands in
// the current epoch (see ResetAccounting).
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
