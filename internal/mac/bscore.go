package mac

import (
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// bsCore is the data sink every base station shares: the wiring, the
// member table, the data counters and forwarding hook, sender-ID
// attribution, the admission, release and reclaim records, and the
// acknowledgement chain. BS and LPLBS embed it by value and add only how
// they regulate the BAN's timing. Each binds two functions at
// construction: mayAck, which decides whether an owed ack still flies
// once its turnaround ran, and acked, which runs once an ack has flown.
type bsCore struct {
	k      *sim.Kernel
	cfg    BSConfig
	sched  *tinyos.Sched
	radio  *radio.Radio
	ledger *energy.Ledger
	tracer *metrics.Recorder
	trace  metrics.NodeID // "bs" in tracer

	memberTable
	// memberDetail ("node=%d slot=%d") and reclaimDetail trace an index
	// by the table's noun.
	memberDetail  string
	reclaimDetail string

	onData func(rec RxRecord)
	// spare recycles the buffers an acknowledged frame's payload waits
	// in until its forwarding task ran, so there are only ever as many
	// as frames in flight.
	spare   [][]byte
	stats   BSStats
	started bool
	ackBuf  []byte // marshal scratch: one ack is loaded at a time

	// The ack chain, stepped by handlers bound once in init. Owed acks
	// wait in acks for their turnaround ISR, then in ackLoads for their
	// FIFO load: LPL's join ack skips the turnaround, so a load can
	// overtake a pending turnaround. Both ride MCU completions, which
	// keep posting order.
	mayAck        func(a owedAck) bool
	acked         func(a owedAck)
	acks          sim.FIFO[owedAck]
	ackLoads      sim.FIFO[owedAck]
	firing        owedAck
	forwards      sim.FIFO[RxRecord] // frames awaiting the forwarding task
	nodeTasks     sim.FIFO[uint8]    // nodes awaiting a slot-assign or release task
	ackTurnaround func()
	ackLoaded     func()
	ackSent       func()
	forwarded     func()
}

// ackKind names what an owed acknowledgement answers.
type ackKind uint8

const (
	ackData  ackKind = iota // a data frame, forwarded once its ack flies
	ackEarly                // LPL's early ack, truncating a strobe train
	ackJoin                 // LPL's association ack
)

// owedAck is an acknowledgement the base station owes.
type owedAck struct {
	kind ackKind
	rec  RxRecord // the acknowledged frame; only Node unless kind is ackData
}

// RxRecord is one data frame the base station accepted. OnData's
// Payload is valid only for the duration of the callback.
type RxRecord struct {
	Node    uint8
	Payload []byte
	At      sim.Time
}

// init wires the core over its radio and OS and applies the shared
// config defaults: the address plan, and maxSlots members when the
// config names no cap. noun is what the table calls an index.
func (c *bsCore) init(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder, maxSlots int, noun string,
	mayAck func(a owedAck) bool, acked func(a owedAck)) {
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = maxSlots
	}
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	c.k, c.cfg, c.sched, c.radio, c.ledger, c.tracer = k, cfg, sched, r, ledger, tracer
	c.trace = tracer.ID("bs")
	c.memberTable = newMemberTable(cfg.MaxSlots, noun)
	c.memberDetail = "node=%d " + noun + "=%d"
	c.reclaimDetail = c.memberDetail + " after=%d"
	c.mayAck, c.acked = mayAck, acked
	c.ackTurnaround = c.turnAck
	c.ackLoaded = c.onAckLoaded
	c.ackSent = c.onAckSent
	c.forwarded = c.forward
}

// OnData implements BSMAC: fn runs for each accepted data frame once its
// forwarding task ran (the "forward to the PC/PDA" hook).
func (c *bsCore) OnData(fn func(rec RxRecord)) { c.onData = fn }

// Stats implements BSMAC.
func (c *bsCore) Stats() BSStats { return c.stats }

// ResetAccounting implements BSMAC.
func (c *bsCore) ResetAccounting() { c.stats = BSStats{} }

// AuditTable implements BSMAC: the member maps must be inverse
// bijections with indices inside the admission cap.
func (c *bsCore) AuditTable() []string { return c.audit() }

// start marks the base station started; a second Start panics.
func (c *bsCore) start() {
	if c.started {
		panic("mac: base station started twice")
	}
	c.started = true
}

// listen opens the receiver on the base station's two addresses.
func (c *bsCore) listen() {
	c.radio.SetRxAddresses(c.cfg.Plan.BSData, c.cfg.Plan.BSCtrl)
	c.radio.StartRx()
}

// --- association ---------------------------------------------------------

// postFor posts a slot-table task on node's behalf, reporting false
// when the full task queue dropped it. run pops node from nodeTasks.
func (c *bsCore) postFor(task string, node uint8, run func()) bool {
	if !c.sched.PostFn(task, c.cfg.Profile.Cost.BSSlotAssign, run) {
		return false
	}
	c.nodeTasks.Push(node)
	return true
}

// requestSlot counts node's slot request and posts its assignment task,
// which runs assigned; false means the full task queue dropped it.
func (c *bsCore) requestSlot(node uint8, assigned func()) bool {
	c.stats.SSRReceived++
	return c.postFor("bs-slot-assign", node, assigned)
}

// admitNext runs the admission step of the oldest posted slot request:
// it clears the node's silence and admits it at the lowest free index,
// or rejects it when the table is full. It reports the node, its index,
// whether the node is new, and false for a rejection.
func (c *bsCore) admitNext() (node uint8, idx int, fresh, ok bool) {
	node = c.nodeTasks.Pop()
	delete(c.silent, node)
	if idx, member := c.byNode[node]; member {
		return node, idx, false, true
	}
	if len(c.byNode) >= c.max {
		// "Once reached the limit no other nodes are accepted."
		c.stats.SSRRejected++
		return node, 0, false, false
	}
	return node, c.admit(node), true, true
}

// granted records that node holds idx.
func (c *bsCore) granted(node uint8, idx int) {
	metrics.Record2(c.tracer, c.k.Now(), c.trace, metrics.KindSlotGrant, c.memberDetail, node, idx)
}

// retire frees node's index on its voluntary release, reporting false
// for a duplicate or stale release.
func (c *bsCore) retire(node uint8) bool {
	idx, ok := c.release(node)
	if !ok {
		return false
	}
	c.stats.SlotsReleased++
	metrics.Record2(c.tracer, c.k.Now(), c.trace, metrics.KindSlotRelease, c.memberDetail, node, idx)
	return true
}

// reclaimSilent ages every member's silence counter and frees the
// indices of members silent for ReclaimAfter consecutive sweeps (0
// disables reclamation). It reports whether any member went.
func (c *bsCore) reclaimSilent() bool {
	if c.cfg.ReclaimAfter <= 0 {
		return false
	}
	gone := c.sweepSilent(c.cfg.ReclaimAfter)
	for _, g := range gone {
		c.stats.SlotsReclaimed++
		metrics.Record3(c.tracer, c.k.Now(), c.trace, metrics.KindSlotReclaim,
			c.reclaimDetail, g.node, g.idx, c.cfg.ReclaimAfter)
	}
	return len(gone) > 0
}

// --- data sink -----------------------------------------------------------

// sender attributes a contention frame by the sender-ID header: it
// returns the member that sent payload and the payload past the header.
// A header-only payload or a non-member's frame counts as stray (false).
func (c *bsCore) sender(payload []byte) (uint8, []byte, bool) {
	if len(payload) > packet.DataHeaderBytes {
		if _, member := c.byNode[payload[0]]; member {
			return payload[0], payload[packet.DataHeaderBytes:], true
		}
	}
	c.stats.StrayFrames++
	return 0, nil, false
}

// accept counts a member's data frame and clears the member's silence.
func (c *bsCore) accept(node uint8, payload []byte) {
	delete(c.silent, node)
	c.stats.DataReceived++
	metrics.Record2(c.tracer, c.k.Now(), c.trace, metrics.KindDataRx, "node=%d len=%d", node, len(payload))
}

// oweData queues the acknowledgement of a member's accepted data frame.
// The frame travels with it to the forwarding task, its payload copied
// into a recycled buffer, since the radio reuses its own.
//
//hot:path
func (c *bsCore) oweData(node uint8, payload []byte) {
	var buf []byte
	if n := len(c.spare); n > 0 {
		buf = c.spare[n-1]
		c.spare = c.spare[:n-1]
	}
	buf = append(buf[:0], payload...)
	c.owe(owedAck{kind: ackData, rec: RxRecord{Node: node, Payload: buf, At: c.k.Now()}}, "bs-ack-turnaround")
}

// recycle returns the payload buffer of a frame that was forwarded, or
// will not be, to the spares. Control acks carry none.
func (c *bsCore) recycle(payload []byte) {
	if cap(payload) > 0 {
		c.spare = append(c.spare, payload)
	}
}

// owe queues an acknowledgement behind the turnaround ISR named isr.
func (c *bsCore) owe(a owedAck, isr string) {
	c.acks.Push(a)
	c.sched.Interrupt(isr, c.cfg.Profile.Cost.BSAckTurnaround, c.ackTurnaround)
}

// turnAck loads an owed acknowledgement once the turnaround ISR ran,
// unless the protocol no longer lets it fly.
//
//hot:path
func (c *bsCore) turnAck() {
	a := c.acks.Pop()
	if !c.mayAck(a) {
		c.recycle(a.rec.Payload)
		return
	}
	c.loadAck(a)
}

// loadAck clocks acknowledgement a into the radio FIFO.
func (c *bsCore) loadAck(a owedAck) {
	c.radio.Standby()
	if a.kind == ackEarly {
		c.ackBuf = packet.StrobeAck{}.AppendMarshal(c.ackBuf[:0])
	} else {
		c.ackBuf = packet.Ack{}.AppendMarshal(c.ackBuf[:0])
	}
	c.ackLoads.Push(a)
	c.radio.Load(c.cfg.Plan.NodeAddr(a.rec.Node), c.ackBuf, c.ackLoaded)
}

// onAckLoaded fires a loaded acknowledgement. A data frame's forwarding
// to the collecting device is posted behind it, off the fast path, so
// it cannot delay the FIFO load past the node's listen window.
//
//hot:path
func (c *bsCore) onAckLoaded() {
	a := c.ackLoads.Pop()
	c.firing = a
	c.radio.Fire(c.ackSent)
	if a.kind != ackData {
		return
	}
	if c.sched.PostFn("bs-data-handle", c.cfg.Profile.Cost.BSDataHandle, c.forwarded) {
		c.forwards.Push(a.rec)
	} else {
		c.recycle(a.rec.Payload)
	}
}

// onAckSent counts an acknowledgement once it has flown and hands it to
// the protocol.
//
//hot:path
func (c *bsCore) onAckSent() {
	if c.firing.kind == ackEarly {
		c.stats.EarlyAcksSent++
	} else {
		c.stats.AcksSent++
	}
	c.acked(c.firing)
}

// forward hands an acknowledged frame to the data sink.
//
//hot:path
func (c *bsCore) forward() {
	rec := c.forwards.Pop()
	if c.onData != nil {
		c.onData(rec)
	}
	c.recycle(rec.Payload)
}
