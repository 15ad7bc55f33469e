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

// BSConfig parameterises the base-station MAC.
type BSConfig struct {
	// Protocol selects the MAC.
	Protocol Protocol
	// Params tunes the contention protocols (ignored by TDMA).
	Params Params
	// Profile is normally platform.BaseStation(), shared by reference
	// like NodeConfig.Profile.
	Profile *platform.Profile
	// StaticCycle is the fixed TDMA cycle (static variant only).
	StaticCycle sim.Time
	// MaxSlots caps the network size; 0 selects the protocol's slotCap.
	MaxSlots int
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

// grantRepeat is how many consecutive beacons repeat a static grant; the
// grant then expires to keep the steady-state beacon small.
const grantRepeat = 2

// grant is a static-TDMA slot grant still being advertised.
type grant struct {
	entry packet.SlotEntry
	left  int // beacons remaining
}

// BS is the base station: it regulates the TDMA timing by broadcasting
// beacons and assigns slots in answer to slot requests, over the shared
// data sink. Its member table is the slot table; the silence counters
// count consecutive beacon cycles without a data frame from each joined
// node, for slot reclamation.
type BS struct {
	bsCore

	t0    sim.Time // air-start of the current beacon
	cycle sim.Time // current cycle length
	seq   uint16

	grants []grant
	// needCompact defers dynamic-slot renumbering after a voluntary
	// release to the next beacon build (a safe point for the timing map).
	needCompact bool

	// idHeader switches data-frame sender attribution from slot timing to
	// the one-byte sender-ID header contention MACs prepend (set by the
	// CSMA wrapper; a contention sender may transmit at any offset).
	idHeader bool
	// inBeaconPrep marks the SB region: from beacon preparation until
	// the beacon has flown, the radio is owned by the beacon path and
	// data acknowledgements are suppressed (the sender retries).
	inBeaconPrep bool
	// beaconBuf is marshal scratch for the beacon, reused across cycles
	// so the steady-state beacon path allocates nothing. The inBeaconPrep
	// guard keeps beacon and ack loads from overlapping.
	beaconBuf []byte

	// Per-event state of the beacon path, stepped by handlers bound once
	// in NewBS, so a cycle allocates nothing. A base station never
	// crashes and its beacon chain is strictly sequential (the next
	// beacon is armed only once this one has flown), so the beacon's
	// state lives in fields.
	beaconFireAt sim.Time    // burst instant of the beacon being prepared
	beaconBytes  int         // its encoded payload size
	onBeacon     sim.Handler // a beacon's preparation (arg 0) and instant (arg 1)
	beaconBuilt  func()
	beaconSent   func()
	slotAssigned func()
	slotReleased func()
	entries      []packet.SlotEntry // the beacon's entry list, reused across cycles
}

// NewBS wires a base station over its radio and OS.
func NewBS(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) *BS {
	if cfg.Protocol != ProtoDynamic && cfg.StaticCycle <= 0 {
		panic("mac: static base station needs a cycle length")
	}
	bs := &BS{}
	bs.init(k, cfg, sched, r, ledger, tracer, "slot", bs.ackMayFly, bs.ackFlown)
	bs.onBeacon = bs.beaconStep
	bs.beaconBuilt = bs.buildBeacon
	bs.beaconSent = bs.onBeaconSent
	bs.slotAssigned = bs.assignSlot
	bs.slotReleased = bs.releaseSlot
	r.SetReceiveHandler(bs.onFrame)
	return bs
}

// CycleLength reports the current TDMA cycle.
func (bs *BS) CycleLength() sim.Time { return bs.currentCycle() }

// AuditTable implements BSMAC: the slot table's bijection and range
// laws, plus two of its own: a dynamic table with no compaction pending
// is dense (the cycle only covers indices 0..n-1), and every advertised
// static grant matches the table.
func (bs *BS) AuditTable() []string {
	bs.enter()
	v := bs.audit()
	if bs.cfg.Protocol == ProtoDynamic && !bs.needCompact {
		for _, s := range bs.sortedIndices() {
			if s >= len(bs.byIndex) {
				v = append(v, fmt.Sprintf("dynamic slot %d outside the dense range 0..%d",
					s, len(bs.byIndex)-1))
			}
		}
	}
	for _, g := range bs.grants {
		if int(g.entry.Slot) >= bs.max {
			v = append(v, fmt.Sprintf("grant advertises out-of-range slot %d for node %d",
				g.entry.Slot, g.entry.NodeID))
		}
		if slot, ok := bs.byNode[g.entry.NodeID]; !ok || slot != int(g.entry.Slot) {
			v = append(v, fmt.Sprintf("grant advertises slot %d for node %d but the table says %d",
				g.entry.Slot, g.entry.NodeID, slot))
		}
	}
	return v
}

// Start begins the beacon cycle. The first beacon flies one cycle after
// Start so nodes powered on at t=0 are already listening.
func (bs *BS) Start() {
	bs.enter()
	bs.start()
	bs.cycle = bs.currentCycle()
	bs.listen()
	bs.scheduleBeacon(bs.k.Now() + bs.cycle)
}

// currentCycle derives the cycle from the variant and the join state.
func (bs *BS) currentCycle() sim.Time {
	if bs.cfg.Protocol != ProtoDynamic {
		return bs.cfg.StaticCycle
	}
	// Dynamic: SB+ES region plus one slot per joined node.
	return bs.cfg.Profile.MAC.DynamicSlotDuration * sim.Time(len(bs.byNode)+1)
}

// scheduleBeacon arms the beacon whose burst must start at fireAt.
func (bs *BS) scheduleBeacon(fireAt sim.Time) {
	bs.beaconFireAt = fireAt
	bs.k.ScheduleAt(fireAt-beaconLead(bs.cfg.Profile, bs.max), bs.onBeacon)
}

// beaconLead reports how long before its burst a beacon starts preparing
// on profile p, sized for a table of up to slots entries: build task,
// FIFO load, margin and transmit settle.
func beaconLead(p *platform.Profile, slots int) sim.Time {
	return p.MCU.CyclesToTime(p.Cost.BSBeaconBuild) +
		p.Radio.TxClockIn(p.Radio.AddressBytes+packet.BeaconBaseBytes+packet.SlotEntryBytes*slots) +
		150*sim.Microsecond + p.Radio.TxSettle
}

// MinCycle reports the shortest Cycle the base station of a static or
// CSMA network keeps on profile p, and 0 for the protocols that derive
// their own period. Once a beacon has flown, the next one's beaconLead
// must still lie ahead. Every grant stays in grantRepeat beacons, so a
// member that asked again before its grant was advertised can hold that
// many entries in one beacon.
func MinCycle(proto Protocol, p platform.Profile) sim.Time {
	switch proto {
	case ProtoStatic, ProtoCSMA:
		slots := slotCap(proto, &p.MAC)
		return beaconLead(&p, slots) + p.Radio.Airtime(packet.BeaconBaseBytes+packet.SlotEntryBytes*grantRepeat*slots)
	case ProtoDynamic, ProtoLPL:
	}
	return 0
}

// slotCap reports proto's default member cap: static TDMA's slot count,
// and the dynamic table's size for every other protocol, whose cycle has
// no fixed slot geometry to limit it.
func slotCap(proto Protocol, p *platform.MACParams) int {
	if proto == ProtoStatic {
		return p.MaxStaticSlots
	}
	return p.MaxDynamicSlots
}

// beaconStep runs a step of the beacon path: its preparation, or with
// an argument word of 1, its instant.
//
//hot:path
func (bs *BS) beaconStep(k *sim.Kernel) {
	bs.enter()
	if k.Arg() == 0 {
		bs.prepareBeacon()
	} else {
		bs.beaconDue()
	}
}

// prepareBeacon opens the SB region and builds the beacon, which then
// flies on time.
//
//hot:path
func (bs *BS) prepareBeacon() {
	bs.inBeaconPrep = true
	bs.radio.Standby() // stop listening; the SB slot begins
	bs.sched.Interrupt("bs-beacon-build", bs.cfg.Profile.Cost.BSBeaconBuild, bs.beaconBuilt)
}

// buildBeacon assembles and loads the beacon once the build task ran.
// It first frees the slots of nodes silent for ReclaimAfter consecutive
// beacon cycles, before the cycle length is recomputed, so a dynamic
// cycle shrinks on the very beacon that drops the node. In the dynamic
// variant the surviving slots are renumbered densely (the cycle only
// covers indices 0..n-1 and every beacon carries the full table, so
// survivors pick up their new index from the next beacon); in the static
// variant the freed index simply returns to the grant pool.
//
//hot:path
func (bs *BS) buildBeacon() {
	bs.enter()
	p := bs.cfg.Profile
	if bs.reclaimSilent() {
		bs.dropStaleGrants()
		bs.needCompact = bs.needCompact || bs.cfg.Protocol == ProtoDynamic
	}
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
	bs.beaconBuf = b.AppendMarshal(bs.beaconBuf[:0])
	bs.radio.Load(bs.cfg.Plan.Beacon, bs.beaconBuf, nil)
	bs.k.ScheduleArgAt(max(bs.beaconFireAt-p.Radio.TxSettle, bs.k.Now()), bs.onBeacon, 1)
}

// beaconDue fires the beacon at its instant, or as its FIFO clock-in
// ends if that is still running (radio.Radio.Fire).
//
//hot:path
func (bs *BS) beaconDue() { bs.radio.Fire(bs.beaconSent) }

// onBeaconSent reopens the receiver and arms the next beacon.
//
//hot:path
func (bs *BS) onBeaconSent() {
	bs.enter()
	p := bs.cfg.Profile
	bs.inBeaconPrep = false
	bs.stats.BeaconsSent++
	metrics.Record3(bs.tracer, bs.k.Now(), bs.trace, metrics.KindBeaconTx,
		"seq=%d cycle=%v nodes=%d", bs.seq, bs.cycle, len(bs.byNode))
	bs.listen()
	// The burst just ended; its air start is the reference.
	bs.t0 = bs.k.Now() - p.Radio.Airtime(bs.beaconBytes)
	bs.scheduleBeacon(bs.t0 + bs.cycle)
}

// dropStaleGrants stops advertising grants to nodes no longer in the
// table.
func (bs *BS) dropStaleGrants() {
	live := bs.grants[:0]
	for _, g := range bs.grants {
		if _, ok := bs.byNode[g.entry.NodeID]; ok {
			live = append(live, g)
		}
	}
	bs.grants = live
}

// compactSlots renumbers the surviving dynamic slots densely, preserving
// their order. Without this a survivor's slot index could exceed the
// shrunk cycle and its transmissions would land outside the frame. Each
// survivor moves down to its rank, which is always free by then.
func (bs *BS) compactSlots() {
	for i, slot := range bs.sortedIndices() {
		if id := bs.byIndex[slot]; slot != i {
			delete(bs.byIndex, slot)
			bs.byIndex[i], bs.byNode[id] = id, i
		}
	}
}

// beaconEntries assembles the advertisement list: the full slot table for
// dynamic TDMA, the active grants for static TDMA.
//
// The list lives in scratch reused by the next beacon, which is built
// only after this one has been marshalled.
func (bs *BS) beaconEntries() []packet.SlotEntry {
	entries := bs.entries[:0]
	if bs.cfg.Protocol == ProtoDynamic {
		for _, slot := range bs.sortedIndices() {
			entries = append(entries, packet.SlotEntry{NodeID: bs.byIndex[slot], Slot: uint8(slot)})
		}
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
	bs.enter()
	switch f.Dest {
	case bs.cfg.Plan.BSCtrl:
		if ssr, err := packet.UnmarshalSSR(f.Payload); err == nil {
			bs.requestSlot(ssr.NodeID, bs.slotAssigned)
		} else if rel, err := packet.UnmarshalRelease(f.Payload); err == nil {
			bs.postFor("bs-slot-release", rel.NodeID, bs.slotReleased)
		}
	case bs.cfg.Plan.BSData:
		bs.handleData(f.Payload)
	}
}

// releaseSlot frees a voluntarily released slot once its task ran — the
// low-battery node is parking in beacon-only mode and will not return —
// so the dynamic cycle compacts on the next beacon instead of after the
// silence-reclaim window.
func (bs *BS) releaseSlot() {
	bs.enter()
	if !bs.retire(bs.nodeTasks.Pop()) {
		return // duplicate or stale release
	}
	bs.dropStaleGrants()
	// Compaction is deferred to the next beacon build: renumbering now
	// would misattribute frames from survivors that still transmit in
	// their old slot indices for the rest of this cycle.
	if bs.cfg.Protocol == ProtoDynamic {
		bs.needCompact = true
	}
}

// assignSlot answers a slot request once the assignment task ran: it
// assigns a slot (or repeats an existing assignment for a retrying node)
// and advertises it in upcoming beacons.
func (bs *BS) assignSlot() {
	bs.enter()
	node, slot, fresh, ok := bs.admitNext()
	if !ok {
		return
	}
	if fresh && bs.cfg.Protocol == ProtoDynamic {
		metrics.Record2(bs.tracer, bs.k.Now(), bs.trace, metrics.KindCycleGrow,
			"nodes=%d next-cycle=%v", len(bs.byNode), bs.currentCycle())
	}
	bs.granted(node, slot)
	if bs.cfg.Protocol != ProtoDynamic {
		bs.grants = append(bs.grants, grant{
			entry: packet.SlotEntry{NodeID: node, Slot: uint8(slot)},
			left:  grantRepeat,
		})
	}
}

// handleData identifies the sender — from the slot timing under TDMA,
// from the sender-ID header under contention access — and hands the
// frame to the data sink. Its acknowledgement turns the radio around
// immediately; during beacon preparation the radio belongs to the
// beacon path and the ack is suppressed — a desynchronised sender
// transmitting into the SB region simply retries.
func (bs *BS) handleData(payload []byte) {
	var node uint8
	ok := false
	if bs.idHeader {
		node, payload, ok = bs.sender(payload)
	} else {
		p := bs.cfg.Profile
		airStart := bs.radio.LastRxFrameEnd() - p.Radio.Airtime(len(payload))
		slot := int((airStart-bs.t0)/slotDuration(&p.MAC, bs.cfg.Protocol, bs.cycle)) - 1
		if node, ok = bs.byIndex[slot]; !ok {
			bs.stats.StrayFrames++
		}
	}
	if !ok {
		return
	}
	bs.accept(node, payload)
	if bs.inBeaconPrep {
		return
	}
	bs.oweData(node, payload)
}

// ackMayFly lets an owed ack fly unless the beacon path took the radio
// during its turnaround.
func (bs *BS) ackMayFly(owedAck) bool { return !bs.inBeaconPrep }

// ackFlown reopens the receiver once an acknowledgement has flown.
func (bs *BS) ackFlown(owedAck) { bs.listen() }
