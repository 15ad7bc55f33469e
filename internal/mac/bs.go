package mac

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
	"repro/internal/trace"
)

// BSConfig parameterises the base-station MAC.
type BSConfig struct {
	Variant Variant
	// Protocol selects the MAC from the registry; empty derives it from
	// Variant ("static"/"dynamic").
	Protocol Protocol
	// Params tunes the contention protocols (ignored by TDMA).
	Params Params
	// Profile is normally platform.BaseStation().
	Profile platform.Profile
	// StaticCycle is the fixed TDMA cycle (static variant only).
	StaticCycle sim.Time
	// MaxSlots caps the network size; 0 selects the profile default for
	// the variant.
	MaxSlots int
	// GrantRepeat is how many consecutive beacons repeat a static grant
	// (the grant then expires to keep the steady-state beacon small).
	GrantRepeat int
	// Plan is the BAN's address assignment; the zero value selects
	// packet.DefaultPlan().
	Plan packet.AddressPlan
	// ReclaimAfter frees the slot of a joined node that has been silent
	// for this many consecutive beacon cycles (it crashed, walked out of
	// range, or lost sync). 0 disables reclamation — the historical
	// behaviour, and the right setting for applications that legitimately
	// send less than once per cycle.
	ReclaimAfter int
}

// BSStats counts base-station events.
type BSStats struct {
	BeaconsSent    uint64
	DataReceived   uint64
	AcksSent       uint64
	SSRReceived    uint64
	SSRRejected    uint64
	StrayFrames    uint64
	SlotsReclaimed uint64
	// SlotsReleased counts voluntary releases from nodes entering
	// beacon-only mode (distinct from silence reclaims).
	SlotsReleased uint64
	// Probes/StrobesHeard/EarlyAcksSent are the LPL receiver's
	// preamble-sampling counters (zero for beaconed protocols): channel
	// probes performed, strobes detected, and strobe trains truncated
	// with an early ack.
	Probes        uint64
	StrobesHeard  uint64
	EarlyAcksSent uint64
}

// RxRecord is one data frame the base station accepted.
type RxRecord struct {
	Node    uint8
	Payload []byte
	At      sim.Time
}

// grant is a static-TDMA slot grant still being advertised.
type grant struct {
	entry packet.SlotEntry
	left  int // beacons remaining
}

// BS is the base station: it regulates the TDMA timing by broadcasting
// beacons, receives the nodes' data (acknowledging each frame), and
// assigns slots in answer to slot requests.
type BS struct {
	k      *sim.Kernel
	cfg    BSConfig
	sched  *tinyos.Sched
	radio  *radio.Radio
	ledger *energy.Ledger
	tracer *trace.Recorder

	t0       sim.Time // air-start of the current beacon
	cycle    sim.Time // current cycle length
	seq      uint16
	maxSlots int

	nodeSlot map[uint8]int
	slotNode map[int]uint8
	grants   []grant
	// silent counts consecutive beacon cycles without a data frame from
	// each joined node, for slot reclamation.
	silent map[uint8]int
	// needCompact defers dynamic-slot renumbering after a voluntary
	// release to the next beacon build (a safe point for the timing map).
	needCompact bool

	onData func(rec RxRecord)
	rxLog
	stats   BSStats
	started bool
	// idHeader switches data-frame sender attribution from slot timing to
	// the one-byte sender-ID header contention MACs prepend (set by the
	// CSMA wrapper; a contention sender may transmit at any offset).
	idHeader bool
	// inBeaconPrep marks the SB region: from beacon preparation until
	// the beacon has flown, the radio is owned by the beacon path and
	// data acknowledgements are suppressed (the sender retries).
	inBeaconPrep bool
	// beaconBuf and ackBuf are marshal scratch for the two BS-originated
	// packet kinds, reused across cycles so the steady-state beacon/ack
	// path allocates nothing. Each buffer backs at most one loaded frame
	// at a time: the inBeaconPrep guard keeps beacon and ack loads from
	// overlapping, and a new marshal only happens after the previous
	// frame has flown.
	beaconBuf []byte
	ackBuf    []byte

	// Per-event state of the beacon and data paths, each stepped by a
	// handler bound once in NewBS, so a cycle allocates nothing. A base
	// station never crashes and its beacon chain is strictly sequential
	// (the next beacon is armed only once this one has flown), so the
	// beacon's state lives in fields; the data path's per-frame state
	// rides on MCU completions, which arrive in posting order.
	beaconFireAt   sim.Time // burst instant of the beacon being prepared
	beaconBytes    int      // its encoded payload size
	beaconLoaded   bool
	beaconIsDue    bool
	acks           sim.FIFO[RxRecord] // frames awaiting the ack turnaround
	ackLoads       sim.FIFO[RxRecord] // acked frames whose ack is clocking in
	forwards       sim.FIFO[RxRecord] // frames awaiting the forwarding task
	ssrs           sim.FIFO[packet.SSR]
	releases       sim.FIFO[packet.Release]
	onPrepare      sim.Handler
	onBeaconDue    sim.Handler
	beaconBuilt    func()
	beaconLoadDone func()
	beaconSent     func()
	ackTurnaround  func()
	ackLoaded      func()
	ackSent        func()
	forwarded      func()
	slotAssigned   func()
	slotReleased   func()
	// Scratch reused across cycles: the beacon's entry list, the sorted
	// node IDs of a reclaim sweep and the slot table of a compaction.
	entries []packet.SlotEntry
	ids     []uint8
	table   []packet.SlotEntry
}

// rxLog is a base station's received-frame log. Payloads are copied
// into an append-only arena: a record's capped slice never sees later
// frames, and growth only reallocates geometrically.
type rxLog struct {
	received []RxRecord
	arena    []byte
}

// log appends the record of a frame from node, copying its payload.
func (l *rxLog) log(node uint8, payload []byte, at sim.Time) RxRecord {
	start := len(l.arena)
	l.arena = append(l.arena, payload...)
	end := len(l.arena)
	rec := RxRecord{Node: node, Payload: l.arena[start:end:end], At: at}
	l.received = append(l.received, rec)
	return rec
}

// NewBS wires a base station over its radio and OS.
func NewBS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *trace.Recorder) *BS {
	if cfg.MaxSlots <= 0 {
		if cfg.Variant == Dynamic {
			cfg.MaxSlots = cfg.Profile.MAC.MaxDynamicSlots
		} else {
			cfg.MaxSlots = cfg.Profile.MAC.MaxStaticSlots
		}
	}
	if cfg.GrantRepeat <= 0 {
		cfg.GrantRepeat = 2
	}
	if cfg.Variant == Static && cfg.StaticCycle <= 0 {
		panic("mac: static base station needs a cycle length")
	}
	if cfg.Plan == (packet.AddressPlan{}) {
		cfg.Plan = packet.DefaultPlan()
	}
	bs := &BS{
		k:        k,
		cfg:      cfg,
		sched:    sched,
		radio:    r,
		ledger:   ledger,
		tracer:   tracer,
		maxSlots: cfg.MaxSlots,
		nodeSlot: make(map[uint8]int),
		slotNode: make(map[int]uint8),
		silent:   make(map[uint8]int),
	}
	bs.onPrepare = bs.prepareBeacon
	bs.onBeaconDue = bs.beaconDue
	bs.beaconBuilt = bs.buildBeacon
	bs.beaconLoadDone = bs.onBeaconLoaded
	bs.beaconSent = bs.onBeaconSent
	bs.ackTurnaround = bs.turnAck
	bs.ackLoaded = bs.onAckLoaded
	bs.ackSent = bs.onAckSent
	bs.forwarded = bs.forward
	bs.slotAssigned = bs.assignSlot
	bs.slotReleased = bs.releaseSlot
	r.SetReceiveHandler(bs.onFrame)
	return bs
}

// OnData registers a callback for each accepted data frame (the "forward
// to the PC/PDA" hook).
func (bs *BS) OnData(fn func(rec RxRecord)) { bs.onData = fn }

// Received returns the accepted data frames in arrival order.
func (bs *BS) Received() []RxRecord { return bs.received }

// Stats returns a copy of the counters.
func (bs *BS) Stats() BSStats { return bs.stats }

// CycleLength reports the current TDMA cycle.
func (bs *BS) CycleLength() sim.Time { return bs.currentCycle() }

// Nodes reports the joined node IDs in slot order.
func (bs *BS) Nodes() []uint8 {
	slots := make([]int, 0, len(bs.slotNode))
	for s := range bs.slotNode {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	out := make([]uint8, 0, len(slots))
	for _, s := range slots {
		out = append(out, bs.slotNode[s])
	}
	return out
}

// AuditSlotTable checks the slot-assignment invariants and returns a
// detail string per broken law (nil when the table is consistent): the
// node→slot and slot→node maps are inverse bijections, every slot index
// is in range, a dynamic table with no compaction pending is dense (the
// cycle only covers indices 0..n-1), and every advertised static grant
// matches the table. A violation means a join, release or reclaim path
// granted the same slot twice or left the maps out of step.
func (bs *BS) AuditSlotTable() []string {
	var v []string
	if len(bs.nodeSlot) != len(bs.slotNode) {
		v = append(v, fmt.Sprintf("slot maps out of step: %d nodes, %d slots",
			len(bs.nodeSlot), len(bs.slotNode)))
	}
	ids := make([]uint8, 0, len(bs.nodeSlot))
	for id := range bs.nodeSlot {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		slot := bs.nodeSlot[id]
		if slot < 0 || slot >= bs.maxSlots {
			v = append(v, fmt.Sprintf("node %d holds out-of-range slot %d (max %d)",
				id, slot, bs.maxSlots))
			continue
		}
		if holder, ok := bs.slotNode[slot]; !ok || holder != id {
			v = append(v, fmt.Sprintf("slot %d granted to node %d but the slot map names node %d",
				slot, id, holder))
		}
	}
	slots := make([]int, 0, len(bs.slotNode))
	for s := range bs.slotNode {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, s := range slots {
		id := bs.slotNode[s]
		if back, ok := bs.nodeSlot[id]; !ok || back != s {
			v = append(v, fmt.Sprintf("slot %d names node %d but the node map points at slot %d",
				s, id, back))
		}
		if bs.cfg.Variant == Dynamic && !bs.needCompact && s >= len(bs.slotNode) {
			v = append(v, fmt.Sprintf("dynamic slot %d outside the dense range 0..%d",
				s, len(bs.slotNode)-1))
		}
	}
	for _, g := range bs.grants {
		if int(g.entry.Slot) >= bs.maxSlots {
			v = append(v, fmt.Sprintf("grant advertises out-of-range slot %d for node %d",
				g.entry.Slot, g.entry.NodeID))
		}
		if slot, ok := bs.nodeSlot[g.entry.NodeID]; !ok || slot != int(g.entry.Slot) {
			v = append(v, fmt.Sprintf("grant advertises slot %d for node %d but the table says %d",
				g.entry.Slot, g.entry.NodeID, slot))
		}
	}
	return v
}

// AuditTable implements BSMAC: the TDMA base station's association
// bookkeeping is the slot table.
func (bs *BS) AuditTable() []string { return bs.AuditSlotTable() }

// ResetAccounting zeroes statistics and the received-frame log.
func (bs *BS) ResetAccounting() {
	bs.stats = BSStats{}
	bs.received = nil
}

// Start begins the beacon cycle. The first beacon flies one cycle after
// Start so nodes powered on at t=0 are already listening.
func (bs *BS) Start() {
	if bs.started {
		panic("mac: base station started twice")
	}
	bs.started = true
	bs.cycle = bs.currentCycle()
	bs.radio.SetRxAddresses(bs.cfg.Plan.BSData, bs.cfg.Plan.BSCtrl)
	bs.radio.StartRx()
	bs.scheduleBeacon(bs.k.Now() + bs.cycle)
}

// currentCycle derives the cycle from the variant and the join state.
func (bs *BS) currentCycle() sim.Time {
	if bs.cfg.Variant == Static {
		return bs.cfg.StaticCycle
	}
	// Dynamic: SB+ES region plus one slot per joined node.
	return bs.cfg.Profile.MAC.DynamicSlotDuration * sim.Time(len(bs.nodeSlot)+1)
}

// slotDuration mirrors the node-side computation.
func (bs *BS) slotDuration() sim.Time {
	if bs.cfg.Variant == Dynamic {
		return bs.cfg.Profile.MAC.DynamicSlotDuration
	}
	return bs.cycle / sim.Time(bs.cfg.Profile.MAC.MaxStaticSlots+1)
}

// scheduleBeacon arms the beacon whose burst must start at fireAt.
func (bs *BS) scheduleBeacon(fireAt sim.Time) {
	p := bs.cfg.Profile
	// Preparation lead: build task + FIFO load + margin.
	lead := p.MCU.CyclesToTime(p.Cost.BSBeaconBuild) +
		p.Radio.TxClockIn(p.Radio.AddressBytes+bs.maxBeaconBytes()) +
		150*sim.Microsecond
	bs.beaconFireAt = fireAt
	bs.k.ScheduleAt(fireAt-lead-p.Radio.TxSettle, bs.onPrepare)
}

// maxBeaconBytes bounds the beacon payload for lead-time sizing.
func (bs *BS) maxBeaconBytes() int {
	return packet.BeaconBaseBytes + packet.SlotEntryBytes*bs.maxSlots
}

// prepareBeacon opens the SB region and builds the beacon, which then
// flies on time.
//
//hot:path
func (bs *BS) prepareBeacon(*sim.Kernel) {
	bs.inBeaconPrep = true
	bs.radio.Standby() // stop listening; the SB slot begins
	bs.sched.Interrupt("bs-beacon-build", bs.cfg.Profile.Cost.BSBeaconBuild, bs.beaconBuilt)
}

// buildBeacon assembles and loads the beacon once the build task ran.
//
//hot:path
func (bs *BS) buildBeacon() {
	p := bs.cfg.Profile
	bs.reclaimSilent()
	if bs.needCompact {
		bs.compactSlots()
		bs.needCompact = false
	}
	bs.cycle = bs.currentCycle() // dynamic growth/shrink takes effect here
	bs.seq++
	b := packet.Beacon{
		Seq:         bs.seq,
		CycleMicros: uint32(bs.cycle / sim.Microsecond),
		Entries:     bs.beaconEntries(),
	}
	bs.beaconBytes = b.EncodedBytes()
	// The burst should start at fireAt, but under MCU congestion (a
	// slot-assign task from a late SSR, say) the FIFO load can slip past
	// the nominal instant; the beacon then flies as soon as the load
	// completes, and the nodes' guard margins absorb the small delay.
	bs.beaconLoaded, bs.beaconIsDue = false, false
	bs.beaconBuf = b.AppendMarshal(bs.beaconBuf[:0])
	bs.radio.Load(bs.cfg.Plan.Beacon, bs.beaconBuf, bs.beaconLoadDone)
	fireEvent := bs.beaconFireAt - p.Radio.TxSettle
	if fireEvent < bs.k.Now() {
		fireEvent = bs.k.Now() // congestion ate the lead; fly late
	}
	bs.k.ScheduleAt(fireEvent, bs.onBeaconDue)
}

// onBeaconLoaded fires the beacon if its instant has already come.
//
//hot:path
func (bs *BS) onBeaconLoaded() {
	bs.beaconLoaded = true
	if bs.beaconIsDue {
		bs.radio.Fire(bs.beaconSent)
	}
}

// beaconDue fires the beacon at its instant if the load has completed.
//
//hot:path
func (bs *BS) beaconDue(*sim.Kernel) {
	bs.beaconIsDue = true
	if bs.beaconLoaded {
		bs.radio.Fire(bs.beaconSent)
	}
}

// onBeaconSent reopens the receiver and arms the next beacon.
//
//hot:path
func (bs *BS) onBeaconSent() {
	p := bs.cfg.Profile
	bs.inBeaconPrep = false
	bs.stats.BeaconsSent++
	metrics.Record3(bs.tracer, bs.k.Now(), "bs", trace.KindBeaconTx,
		"seq=%d cycle=%v nodes=%d", bs.seq, bs.cycle, len(bs.nodeSlot))
	bs.radio.SetRxAddresses(bs.cfg.Plan.BSData, bs.cfg.Plan.BSCtrl)
	bs.radio.StartRx()
	// The burst just ended; its air start is the reference.
	bs.t0 = bs.k.Now() - p.Radio.Airtime(bs.beaconBytes)
	bs.scheduleBeacon(bs.t0 + bs.cycle)
}

// reclaimSilent ages every joined node's silence counter and frees the
// slots of nodes silent for ReclaimAfter consecutive beacon cycles. It
// runs in the beacon-build task, before the cycle length is recomputed,
// so a dynamic cycle shrinks on the very beacon that drops the node. In
// the dynamic variant the surviving slots are renumbered densely (the
// cycle only covers indices 0..n-1 and every beacon carries the full
// table, so survivors pick up their new index from the next beacon); in
// the static variant the freed index simply returns to the grant pool.
func (bs *BS) reclaimSilent() {
	if bs.cfg.ReclaimAfter <= 0 || len(bs.nodeSlot) == 0 {
		return
	}
	ids := bs.ids[:0]
	for id := range bs.nodeSlot {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	bs.ids = ids
	reclaimed := false
	for _, id := range ids {
		bs.silent[id]++
		if bs.silent[id] < bs.cfg.ReclaimAfter {
			continue
		}
		slot := bs.nodeSlot[id]
		delete(bs.nodeSlot, id)
		delete(bs.slotNode, slot)
		delete(bs.silent, id)
		reclaimed = true
		bs.stats.SlotsReclaimed++
		metrics.Record3(bs.tracer, bs.k.Now(), "bs", trace.KindSlotReclaim,
			"node=%d slot=%d after=%d", id, slot, bs.cfg.ReclaimAfter)
		// Drop any pending grant advertisements for the dead node.
		live := bs.grants[:0]
		for _, g := range bs.grants {
			if g.entry.NodeID != id {
				live = append(live, g)
			}
		}
		bs.grants = live
	}
	if reclaimed && bs.cfg.Variant == Dynamic {
		bs.compactSlots()
	}
}

// compactSlots renumbers the surviving dynamic slots densely, preserving
// their order. Without this a survivor's slot index could exceed the
// shrunk cycle and its transmissions would land outside the frame.
func (bs *BS) compactSlots() {
	table := bs.table[:0]
	for slot, id := range bs.slotNode {
		table = append(table, packet.SlotEntry{NodeID: id, Slot: uint8(slot)})
	}
	slices.SortFunc(table, bySlot)
	bs.table = table
	clear(bs.nodeSlot)
	clear(bs.slotNode)
	for i, e := range table {
		bs.nodeSlot[e.NodeID] = i
		bs.slotNode[i] = e.NodeID
	}
}

// bySlot orders slot entries by slot index.
func bySlot(a, b packet.SlotEntry) int { return int(a.Slot) - int(b.Slot) }

// beaconEntries assembles the advertisement list: the full slot table for
// dynamic TDMA, the active grants for static TDMA.
//
// The list lives in scratch reused by the next beacon, which is built
// only after this one has been marshalled.
func (bs *BS) beaconEntries() []packet.SlotEntry {
	entries := bs.entries[:0]
	if bs.cfg.Variant == Dynamic {
		for slot, node := range bs.slotNode {
			entries = append(entries, packet.SlotEntry{NodeID: node, Slot: uint8(slot)})
		}
		slices.SortFunc(entries, bySlot)
	} else {
		live := bs.grants[:0] // filtered in place
		for _, g := range bs.grants {
			entries = append(entries, g.entry)
			if g.left--; g.left > 0 {
				live = append(live, g)
			}
		}
		bs.grants = live
	}
	bs.entries = entries
	return entries
}

// onFrame dispatches node frames.
//
//hot:path
func (bs *BS) onFrame(f packet.Frame) {
	switch f.Dest {
	case bs.cfg.Plan.BSCtrl:
		if ssr, err := packet.UnmarshalSSR(f.Payload); err == nil {
			bs.handleSSR(ssr)
		} else if rel, err := packet.UnmarshalRelease(f.Payload); err == nil {
			bs.handleRelease(rel)
		}
	case bs.cfg.Plan.BSData:
		bs.handleData(f.Payload)
	}
}

// handleRelease frees a voluntarily released slot immediately — the
// low-battery node is parking in beacon-only mode and will not return —
// so the dynamic cycle compacts on the next beacon instead of after the
// silence-reclaim window.
func (bs *BS) handleRelease(rel packet.Release) {
	if bs.sched.PostFn("bs-slot-release", bs.cfg.Profile.Cost.BSSlotAssign, bs.slotReleased) {
		bs.releases.Push(rel)
	}
}

// releaseSlot frees a released slot once the release task ran.
func (bs *BS) releaseSlot() {
	rel := bs.releases.Pop()
	slot, exists := bs.nodeSlot[rel.NodeID]
	if !exists {
		return // duplicate or stale release
	}
	delete(bs.nodeSlot, rel.NodeID)
	delete(bs.slotNode, slot)
	delete(bs.silent, rel.NodeID)
	bs.stats.SlotsReleased++
	metrics.Record2(bs.tracer, bs.k.Now(), "bs", trace.KindSlotRelease,
		"node=%d slot=%d", rel.NodeID, slot)
	live := bs.grants[:0]
	for _, g := range bs.grants {
		if g.entry.NodeID != rel.NodeID {
			live = append(live, g)
		}
	}
	bs.grants = live
	// Compaction is deferred to the next beacon build: renumbering now
	// would misattribute frames from survivors that still transmit in
	// their old slot indices for the rest of this cycle.
	if bs.cfg.Variant == Dynamic {
		bs.needCompact = true
	}
}

// handleSSR assigns a slot (or repeats an existing assignment for a
// retrying node) and advertises it in upcoming beacons.
func (bs *BS) handleSSR(ssr packet.SSR) {
	bs.stats.SSRReceived++
	if bs.sched.PostFn("bs-slot-assign", bs.cfg.Profile.Cost.BSSlotAssign, bs.slotAssigned) {
		bs.ssrs.Push(ssr)
	}
}

// assignSlot answers a slot request once the assignment task ran.
func (bs *BS) assignSlot() {
	ssr := bs.ssrs.Pop()
	delete(bs.silent, ssr.NodeID)
	slot, exists := bs.nodeSlot[ssr.NodeID]
	if !exists {
		if len(bs.nodeSlot) >= bs.maxSlots {
			// "Once reached the limit no other nodes are accepted."
			bs.stats.SSRRejected++
			return
		}
		slot = bs.nextFreeSlot()
		bs.nodeSlot[ssr.NodeID] = slot
		bs.slotNode[slot] = ssr.NodeID
		if bs.cfg.Variant == Dynamic {
			metrics.Record2(bs.tracer, bs.k.Now(), "bs", trace.KindCycleGrow,
				"nodes=%d next-cycle=%v", len(bs.nodeSlot), bs.currentCycle())
		}
	}
	metrics.Record2(bs.tracer, bs.k.Now(), "bs", trace.KindSlotGrant,
		"node=%d slot=%d", ssr.NodeID, slot)
	if bs.cfg.Variant == Static {
		bs.grants = append(bs.grants, grant{
			entry: packet.SlotEntry{NodeID: ssr.NodeID, Slot: uint8(slot)},
			left:  bs.cfg.GrantRepeat,
		})
	}
}

// nextFreeSlot returns the lowest unassigned slot index.
func (bs *BS) nextFreeSlot() int {
	for s := 0; ; s++ {
		if _, used := bs.slotNode[s]; !used {
			return s
		}
	}
}

// handleData identifies the sender — from the slot timing under TDMA,
// from the sender-ID header under contention access — acknowledges the
// frame and hands it to the data sink.
func (bs *BS) handleData(payload []byte) {
	p := bs.cfg.Profile
	var node uint8
	if bs.idHeader {
		if len(payload) <= packet.DataHeaderBytes {
			bs.stats.StrayFrames++
			return
		}
		id := payload[0]
		if _, member := bs.nodeSlot[id]; !member {
			bs.stats.StrayFrames++
			return
		}
		node = id
		payload = payload[packet.DataHeaderBytes:]
	} else {
		airStart := bs.radio.LastRxFrameEnd() - p.Radio.Airtime(len(payload))
		offset := airStart - bs.t0
		slotDur := bs.slotDuration()
		slot := int(offset/slotDur) - 1
		known := false
		node, known = bs.slotNode[slot]
		if !known {
			bs.stats.StrayFrames++
			return
		}
	}
	delete(bs.silent, node)
	rec := bs.log(node, payload, bs.k.Now())
	bs.stats.DataReceived++
	metrics.Record2(bs.tracer, bs.k.Now(), "bs", trace.KindDataRx, "node=%d len=%d", node, len(payload))

	// Fast-path acknowledgement: turn the radio around immediately; the
	// deferred forwarding task is posted only once the ack is on its way
	// so it cannot delay the FIFO load past the node's listen window.
	// During beacon preparation the radio belongs to the beacon path and
	// the ack is suppressed — a desynchronised sender transmitting into
	// the SB region simply retries.
	if bs.inBeaconPrep {
		return
	}
	bs.acks.Push(rec)
	bs.sched.Interrupt("bs-ack-turnaround", p.Cost.BSAckTurnaround, bs.ackTurnaround)
}

// turnAck loads the acknowledgement once the turnaround ISR ran.
//
//hot:path
func (bs *BS) turnAck() {
	rec := bs.acks.Pop()
	if bs.inBeaconPrep {
		return
	}
	bs.radio.Standby()
	bs.ackBuf = packet.Ack{}.AppendMarshal(bs.ackBuf[:0])
	bs.ackLoads.Push(rec)
	bs.radio.Load(bs.cfg.Plan.NodeAddr(rec.Node), bs.ackBuf, bs.ackLoaded)
}

// onAckLoaded fires the acknowledgement and posts the frame's forwarding
// to the collecting device, off the fast path.
//
//hot:path
func (bs *BS) onAckLoaded() {
	rec := bs.ackLoads.Pop()
	bs.radio.Fire(bs.ackSent)
	if bs.sched.PostFn("bs-data-handle", bs.cfg.Profile.Cost.BSDataHandle, bs.forwarded) {
		bs.forwards.Push(rec)
	}
}

// onAckSent reopens the receiver once the acknowledgement has flown.
//
//hot:path
func (bs *BS) onAckSent() {
	bs.stats.AcksSent++
	bs.radio.SetRxAddresses(bs.cfg.Plan.BSData, bs.cfg.Plan.BSCtrl)
	bs.radio.StartRx()
}

// forward hands an acknowledged frame to the data sink.
//
//hot:path
func (bs *BS) forward() {
	rec := bs.forwards.Pop()
	if bs.onData != nil {
		bs.onData(rec)
	}
}
