package mac

import (
	"repro/internal/energy"
	"repro/internal/mcu"
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
	// as frames in flight. Without a sink no payload is kept.
	spare   [][]byte
	stats   BSStats
	started bool
	// callbacks makes the base station run its acks as it does with a
	// sink, turnaround and forwarding callbacks included: the reference
	// the hand-off is tested against. It sits here to share started's
	// word.
	callbacks bool
	ackBuf    []byte // marshal scratch: one ack is loaded at a time

	// The ack chain, stepped by handlers bound once in init. An owed
	// ack's turnaround ISR runs without a completion callback: owe opens
	// a hand-off at the ISR's completion (handOffs) and applies its
	// callback, turnAck, for the ack owed. Undo falls back, after which
	// the owed ack waits in acks for turnAck, run by an event at the
	// hand-off (onTurned). firing is the one clocking in or on the air.
	// With a sink, each acknowledged data frame waits in forwards for
	// its forwarding task, numbered by handed, the task's Arg, and the
	// turnaround completes through its event.
	handOffs  mcu.HandOffs
	mayAck    func(a owedAck) bool
	acked     func(a owedAck)
	acks      sim.FIFO[owedAck]
	owed      owedAck
	firing    owedAck
	handed    uint64
	forwards  sim.FIFO[forwardRec]
	nodeTasks sim.FIFO[uint8] // nodes awaiting a slot-assign or release task
	onTurned  sim.Handler
	ackSent   func()
	forwarded func()
}

// forwardRec is an acknowledged data frame and the number of its
// forwarding task.
type forwardRec struct {
	n   uint64
	rec RxRecord
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
// config defaults: the address plan, and the protocol's slotCap when the
// config names no cap. noun is what the table calls an index.
func (c *bsCore) init(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder, noun string,
	mayAck func(a owedAck) bool, acked func(a owedAck)) {
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = slotCap(cfg.Protocol, &cfg.Profile.MAC)
	}
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	c.k, c.cfg, c.sched, c.radio, c.ledger, c.tracer = k, cfg, sched, r, ledger, tracer
	c.trace = tracer.ID("bs")
	c.memberTable = newMemberTable(cfg.MaxSlots, noun)
	c.memberDetail, c.reclaimDetail = memberDetails(noun)
	c.mayAck, c.acked = mayAck, acked
	c.onTurned = c.turned
	c.ackSent = c.onAckSent
	c.forwarded = c.forward
	sched.MCU().Register(&c.handOffs, c)
}

// memberDetails reports the trace details that render an index under
// the table's noun, "slot" or "member": the member's, and its
// reclaim's. They are constants, so building a base station allocates
// no format.
func memberDetails(noun string) (member, reclaim string) {
	if noun == "slot" {
		return "node=%d slot=%d", "node=%d slot=%d after=%d"
	}
	return "node=%d member=%d", "node=%d member=%d after=%d"
}

// OnData implements BSMAC: fn runs for each accepted data frame once its
// forwarding task ran (the "forward to the PC/PDA" hook). Without a
// sink, the forwarding task has no callback.
func (c *bsCore) OnData(fn func(rec RxRecord)) {
	c.handOffs.Settle()
	c.onData = fn
}

// Stats implements BSMAC.
func (c *bsCore) Stats() BSStats { return c.stats }

// ResetAccounting implements BSMAC.
func (c *bsCore) ResetAccounting() {
	c.handOffs.Settle()
	c.stats = BSStats{}
}

// AuditTable implements BSMAC: the member maps must be inverse
// bijections with indices inside the admission cap.
func (c *bsCore) AuditTable() []string {
	c.handOffs.Settle()
	return c.audit()
}

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
// With a sink, the frame travels with it to the forwarding task, its
// payload copied into a recycled buffer, since the radio reuses its
// own.
//
//hot:path
func (c *bsCore) oweData(node uint8, payload []byte) {
	rec := RxRecord{Node: node, At: c.k.Now()}
	if c.onData != nil {
		var buf []byte
		if n := len(c.spare); n > 0 {
			buf = c.spare[n-1]
			c.spare = c.spare[:n-1]
		}
		buf = append(buf[:0], payload...)
		rec.Payload = buf
	}
	c.owe(owedAck{kind: ackData, rec: rec}, "bs-ack-turnaround")
}

// recycle returns the payload buffer of a frame that was forwarded, or
// will not be, to the spares. Control acks, and data acks without a
// sink, carry none.
func (c *bsCore) recycle(payload []byte) {
	if cap(payload) > 0 {
		c.spare = append(c.spare, payload)
	}
}

// owe queues an acknowledgement behind the turnaround ISR named isr,
// and opens a hand-off at the ISR's completion, applying its callback,
// turnAck, as of there: if mayAck lets the ack fly, the ack is loaded
// at once, its FIFO clock-in chained to the hand-off (radio.Burst) and
// the forwarding task to the clock-in (tinyos.Sched.Follow). That holds
// unless something enters the base station before the hand-off, or
// submits work to its MCU once the ack is chained: the hand-off is then
// undone (Undo). mayAck reads only protocol state, which nothing but
// such an entry changes. A base station with a sink runs turnAck at
// the hand-off.
//
//hot:path
func (c *bsCore) owe(a owedAck, isr string) {
	c.sched.Interrupt(isr, c.cfg.Profile.Cost.BSAckTurnaround, nil)
	at := c.sched.MCU().Completion()
	if c.onData != nil || c.callbacks || !c.handOffs.Open(at) {
		c.acks.Push(a)
		c.k.ScheduleReserved(at, c.onTurned, 0)
		return
	}
	c.owed = a
	if !c.mayAck(a) {
		return // nothing to recycle without a sink
	}
	c.marshalAck(a)
	if !c.radio.Load(c.cfg.Plan.NodeAddr(a.rec.Node), c.ackBuf, radio.Burst(c.ackSent).AfterHandOff()) {
		c.handOffs.Settle() // the ack cannot be chained: fall back at once
		return
	}
	c.firing = a
	c.handData(a)
}

// Undo implements mcu.Undoer: the hand-off owe opened falls back (the
// ack's clock-in and forwarding task went with it). The ack waits in
// acks, and turnAck runs at the hand-off after all, through an event
// there. firing needs no undoing: no ack was in flight, or the clock-in
// could not have been chained.
func (c *bsCore) Undo(at sim.Pos, _ bool) {
	c.acks.Push(c.owed)
	c.owed = owedAck{}
	c.k.ScheduleReserved(at, c.onTurned, 0)
}

// turned runs turnAck as a turnaround ISR completes.
//
//hot:path
func (c *bsCore) turned(*sim.Kernel) { c.turnAck() }

// turnAck loads an owed acknowledgement once the turnaround ISR ran,
// unless the protocol no longer lets it fly or the radio is still
// sending an earlier ack: the nRF2401's one TX FIFO holds one frame, so
// a second ack owed within one turnaround is dropped and counted.
//
//hot:path
func (c *bsCore) turnAck() {
	c.handOffs.Settle()
	a := c.acks.Pop()
	fly := c.mayAck(a)
	if fly && c.radio.Sending() {
		c.stats.AcksDropped++
		fly = false
	}
	if !fly {
		c.recycle(a.rec.Payload)
		return
	}
	c.loadAck(a)
}

// loadAck clocks acknowledgement a into the radio FIFO, to fly as the
// clock-in ends.
//
//hot:path
func (c *bsCore) loadAck(a owedAck) {
	c.radio.Standby()
	c.marshalAck(a)
	c.firing = a
	c.radio.Load(c.cfg.Plan.NodeAddr(a.rec.Node), c.ackBuf, radio.Burst(c.ackSent))
	c.handData(a)
}

// marshalAck encodes a's frame into the ack scratch.
//
//hot:path
func (c *bsCore) marshalAck(a owedAck) {
	if a.kind == ackEarly {
		c.ackBuf = packet.StrobeAck{}.AppendMarshal(c.ackBuf[:0])
	} else {
		c.ackBuf = packet.Ack{}.AppendMarshal(c.ackBuf[:0])
	}
}

// handData posts a data frame's forwarding to the collecting device as
// its ack's clock-in ends, off the fast path, so it cannot delay the
// FIFO load past the node's listen window. Without a sink the task has
// no callback.
//
//hot:path
func (c *bsCore) handData(a owedAck) {
	if a.kind != ackData {
		return
	}
	t := tinyos.Task{Name: "bs-data-handle", Cycles: c.cfg.Profile.Cost.BSDataHandle}
	if c.onData != nil || c.callbacks {
		c.handed++
		c.forwards.Push(forwardRec{n: c.handed, rec: a.rec})
		t.Run, t.Arg = c.forwarded, c.handed
	}
	c.sched.Follow(t)
}

// onAckSent counts an acknowledgement once it has flown and hands it to
// the protocol.
//
//hot:path
func (c *bsCore) onAckSent() {
	c.handOffs.Settle()
	if c.firing.kind == ackEarly {
		c.stats.EarlyAcksSent++
	} else {
		c.stats.AcksSent++
	}
	c.acked(c.firing)
}

// forward hands an acknowledged frame to the data sink, recycling the
// frames ahead of it, whose tasks a full queue dropped.
//
//hot:path
func (c *bsCore) forward() {
	f := c.forwards.Pop()
	for ; f.n != c.sched.Arg(); f = c.forwards.Pop() {
		c.recycle(f.rec.Payload)
	}
	if c.onData != nil {
		c.onData(f.rec)
	}
	c.recycle(f.rec.Payload)
}
