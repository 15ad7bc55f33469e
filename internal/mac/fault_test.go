package mac

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// crashRigNode silences a rig node the way a full Sensor crash does:
// the MAC loses all volatile state and the radio dies mid-burst if it
// was transmitting. (The rig has no MCU-level app, so there is nothing
// else to stop.)
func crashRigNode(n *NodeMac) {
	n.Crash()
	n.radio.Crash()
}

// startSender arms the usual steady-state traffic source: one 18-byte
// payload per period once the node has joined.
func startSender(r *rig, n *NodeMac, period sim.Time) {
	n.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n.Send(make([]byte, 18)) })
		tm.StartPeriodic(period)
	})
}

// TestDeadNodeSlotLeaksWithoutReclamation is the regression baseline
// for slot reclamation: with ReclaimAfter unset the base station never
// frees a dead node's slot. The dynamic cycle stays stretched and the
// slot table keeps the entry forever.
func TestDeadNodeSlotLeaksWithoutReclamation(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 11)
	n1 := r.addNode(1, ProtoDynamic)
	n2 := r.addNode(2, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
		n2.Start()
	})
	startSender(r, n1, 30*sim.Millisecond)
	startSender(r, n2, 30*sim.Millisecond)

	var cycleAtCrash sim.Time
	r.k.ScheduleAt(1*sim.Second, func(*sim.Kernel) {
		if !n1.Joined() {
			t.Errorf("node1 not joined before crash")
		}
		cycleAtCrash = r.bs.CycleLength()
		crashRigNode(n1)
	})
	r.k.RunUntil(3 * sim.Second)

	if got := r.bs.Stats().SlotsReclaimed; got != 0 {
		t.Fatalf("SlotsReclaimed = %d with reclamation disabled, want 0", got)
	}
	if _, ok := r.bs.byNode[1]; !ok {
		t.Fatalf("dead node's slot was freed with reclamation disabled")
	}
	if got := r.bs.CycleLength(); got != cycleAtCrash {
		t.Fatalf("cycle changed %v -> %v after crash with reclamation disabled",
			cycleAtCrash, got)
	}
}

// TestDynamicReclaimFreesAndCompacts checks that with ReclaimAfter set
// the base station frees a silent node's slot, shrinks the dynamic
// cycle, and renumbers the survivors densely — and that the survivors
// keep exchanging data through the renumbering.
func TestDynamicReclaimFreesAndCompacts(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 12)
	r.bs.cfg.ReclaimAfter = 5
	n1 := r.addNode(1, ProtoDynamic)
	n2 := r.addNode(2, ProtoDynamic)
	n3 := r.addNode(3, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
		n2.Start()
		n3.Start()
	})
	for _, n := range []*NodeMac{n1, n2, n3} {
		startSender(r, n, 10*sim.Millisecond)
	}

	var cycleAtCrash sim.Time
	var ackedAtCrash [2]uint64
	r.k.ScheduleAt(1*sim.Second, func(*sim.Kernel) {
		cycleAtCrash = r.bs.CycleLength()
		ackedAtCrash = [2]uint64{n2.Stats().DataAcked, n3.Stats().DataAcked}
		crashRigNode(n1)
	})
	r.k.RunUntil(3 * sim.Second)

	if got := r.bs.Stats().SlotsReclaimed; got != 1 {
		t.Fatalf("SlotsReclaimed = %d, want 1", got)
	}
	if _, ok := r.bs.byNode[1]; ok {
		t.Fatalf("dead node still holds a slot after reclamation")
	}
	slots := map[int]uint8{}
	for id, s := range r.bs.byNode {
		slots[s] = id
	}
	if len(slots) != 2 || slots[0] == 0 || slots[1] == 0 {
		t.Fatalf("survivor slots not compacted to {0,1}: %v", r.bs.byNode)
	}
	if got := r.bs.CycleLength(); got >= cycleAtCrash {
		t.Fatalf("cycle did not shrink after reclaim: %v -> %v", cycleAtCrash, got)
	}
	// The renumbered survivors kept their data flowing.
	if n2.Stats().DataAcked < ackedAtCrash[0]+50 || n3.Stats().DataAcked < ackedAtCrash[1]+50 {
		t.Fatalf("survivors stalled after compaction: n2 %d->%d n3 %d->%d",
			ackedAtCrash[0], n2.Stats().DataAcked, ackedAtCrash[1], n3.Stats().DataAcked)
	}
	if got := r.bs.Stats().StrayFrames; got != 0 {
		t.Fatalf("StrayFrames = %d after compaction, want 0", got)
	}
}

// TestStaticReclaimReturnsSlotToPool checks the static variant: the
// freed slot index goes back to the pool and is handed to the next
// joiner.
func TestStaticReclaimReturnsSlotToPool(t *testing.T) {
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 13)
	r.bs.cfg.ReclaimAfter = 5
	n1 := r.addNode(1, ProtoStatic)
	n2 := r.addNode(2, ProtoStatic)
	n3 := r.addNode(3, ProtoStatic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
		n2.Start()
	})
	startSender(r, n1, 30*sim.Millisecond)
	startSender(r, n2, 30*sim.Millisecond)
	startSender(r, n3, 30*sim.Millisecond)

	var freedSlot int
	r.k.ScheduleAt(1*sim.Second, func(*sim.Kernel) {
		if !n1.Joined() {
			t.Errorf("node1 not joined before crash")
		}
		freedSlot = n1.Slot()
		crashRigNode(n1)
	})
	// A late joiner arrives after the slot has been reclaimed.
	r.k.ScheduleAt(2*sim.Second, func(*sim.Kernel) { n3.Start() })
	r.k.RunUntil(3 * sim.Second)

	if got := r.bs.Stats().SlotsReclaimed; got != 1 {
		t.Fatalf("SlotsReclaimed = %d, want 1", got)
	}
	if !n3.Joined() {
		t.Fatalf("late joiner never joined")
	}
	if n3.Slot() != freedSlot {
		t.Fatalf("late joiner got slot %d, want the reclaimed slot %d", n3.Slot(), freedSlot)
	}
}

// TestCrashDuringInflightFrame kills a node in the middle of a data
// burst — after the FIFO fired, before the ack — and verifies the base
// station's schedule survives, the channel truncates the orphaned
// frame, energy accounting stays consistent, and a later reboot brings
// the node all the way back to Joined.
func TestCrashDuringInflightFrame(t *testing.T) {
	const seed = 21
	run := func(crashAt, rebootAt sim.Time) (*rig, *NodeMac) {
		r := newRig(t, ProtoStatic, 30*sim.Millisecond, seed)
		r.bs.cfg.ReclaimAfter = 5
		n1 := r.addNode(1, ProtoStatic)
		n2 := r.addNode(2, ProtoStatic)
		r.k.Schedule(0, func(*sim.Kernel) {
			r.bs.Start()
			n1.Start()
			n2.Start()
		})
		startSender(r, n1, 30*sim.Millisecond)
		startSender(r, n2, 30*sim.Millisecond)
		if crashAt > 0 {
			r.k.ScheduleAt(crashAt, func(*sim.Kernel) { crashRigNode(n1) })
			r.k.ScheduleAt(rebootAt, func(*sim.Kernel) { n1.Start() })
		}
		r.k.RunUntil(2 * sim.Second)
		return r, n1
	}

	// Phase 1: a fault-free run locates a steady-state data burst.
	// KindDataTx is recorded when the burst *completes*, so the on-air
	// window is bracketed by the preceding slot-start.
	probe, _ := run(0, 0)
	var txEnd sim.Time
	for _, ev := range probe.probeTracer().Filter(metrics.KindDataTx) {
		if ev.Node == "node1" && ev.At > 500*sim.Millisecond {
			txEnd = ev.At
			break
		}
	}
	if txEnd == 0 {
		t.Fatalf("probe run recorded no steady-state data-tx for node1")
	}
	baseBeacons := probe.bs.Stats().BeaconsSent

	// Phase 2: same seed, crash 50us before the burst completes — the
	// frame is on the air (PLL settling is long over), the ack has not
	// arrived. Reboot 500ms later.
	crashAt := txEnd - 50*sim.Microsecond
	r, n1 := run(crashAt, crashAt+500*sim.Millisecond)

	if got := r.ch.Stats().Truncated; got != 1 {
		t.Fatalf("channel Truncated = %d, want 1 (orphaned burst)", got)
	}
	// The BS beacon schedule never wedged: the crash costs no beacons.
	if got := r.bs.Stats().BeaconsSent; got != baseBeacons {
		t.Fatalf("BeaconsSent = %d with mid-burst crash, want %d", got, baseBeacons)
	}
	if !n1.Joined() {
		t.Fatalf("node did not rejoin after reboot")
	}
	st := n1.Stats()
	if st.DataAcked > st.DataSent {
		t.Fatalf("acked %d > sent %d: post-crash double counting", st.DataAcked, st.DataSent)
	}
	// Energy stays conserved through crash and reboot: the radio meter's
	// state residencies must sum exactly to the simulated span. A stale
	// (non gen-gated) completion would double-book the crash window.
	m := n1.ledger.Meter(platform.ComponentRadio)
	m.Flush(r.k.Now())
	if got := m.TotalTime(); got != 2*sim.Second {
		t.Fatalf("radio meter residencies sum to %v, want 2s", got)
	}
	// Availability reflects the outage.
	if jt := n1.JoinedTime(); jt >= 2*sim.Second-400*sim.Millisecond {
		t.Fatalf("JoinedTime = %v, outage not accounted", jt)
	}
}

// probeTracer exposes the rig's recorder for two-phase tests.
func (r *rig) probeTracer() *metrics.Recorder { return r.tracer }
