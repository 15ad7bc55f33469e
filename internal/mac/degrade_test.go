package mac

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/sim"
)

// TestFrameConservation drives a node over a lossy channel until retries
// exhaust, and checks the data-frame conservation law: every transmitted
// frame is eventually acknowledged or dropped, with at most one frame
// still awaiting its acknowledgement at any instant.
func TestFrameConservation(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 11)
	n1 := r.addNode(1, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	// A heavily corrupted uplink: data frames die often enough that some
	// exhaust DefaultMaxRetries, but joins still complete.
	r.k.Schedule(700*sim.Millisecond, func(*sim.Kernel) {
		r.ch.SetLink("node1", "bs", channel.Link{Connected: true, BER: 2e-3})
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(20 * sim.Millisecond)
	})
	r.k.RunUntil(12 * sim.Second)

	st := n1.Stats()
	if st.DataDropped == 0 {
		t.Fatalf("no frame exhausted its retries at BER 2e-3: %+v", st)
	}
	// The laws themselves live in AuditFrameStats; this test keeps the
	// lossy-channel scenario that exercises every branch of the ledger.
	if v := n1.AuditFrame(); len(v) != 0 {
		t.Fatalf("frame conservation violated: %v (stats %+v)", v, st)
	}
}

// TestSlotStretchSkipsSlots checks the duty-cycle-stretch rung: with a
// cadence of k, exactly every k-th joined cycle sleeps through its slot.
func TestSlotStretchSkipsSlots(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 12)
	n1 := r.addNode(1, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		n1.SetSlotStretch(4)
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(20 * sim.Millisecond)
	})
	r.k.RunUntil(3 * sim.Second)
	st := n1.Stats()
	if st.SlotsSkipped == 0 {
		t.Fatalf("stretch cadence 4 skipped nothing: %+v", st)
	}
	// One skip per 4 heard beacons, within the join/shutdown slack.
	if lo, hi := st.BeaconsHeard/4-3, st.BeaconsHeard/4+1; st.SlotsSkipped < lo || st.SlotsSkipped > hi {
		t.Fatalf("skipped %d of %d cycles, want ~1 in 4", st.SlotsSkipped, st.BeaconsHeard)
	}
	// Data still flows on the non-skipped cycles.
	if st.DataSent == 0 || !n1.Joined() {
		t.Fatalf("stretching stopped the data path: %+v", st)
	}
	// k < 2 disables the stretch.
	n1.SetSlotStretch(0)
	before := st.SlotsSkipped
	r.k.RunUntil(4 * sim.Second)
	if got := n1.Stats().SlotsSkipped; got != before {
		t.Fatalf("skips grew to %d after disabling", got)
	}
}

// TestEnterBeaconOnlyReleasesSlot checks the final degradation rung: the
// node announces its release in its own slot, the base station frees and
// compacts, and the parked node keeps beacon synchronisation alive at
// the doze cadence without ever rejoining.
func TestEnterBeaconOnlyReleasesSlot(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 13)
	n1 := r.addNode(1, ProtoDynamic)
	n2 := r.addNode(2, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	r.k.Schedule(100*sim.Millisecond, func(*sim.Kernel) { n2.Start() })
	for _, n := range []*NodeMac{n1, n2} {
		n := n
		n.OnJoined(func() {
			tm := sim.NewTimer(r.k, func(*sim.Kernel) { n.Send(make([]byte, 18)) })
			tm.StartPeriodic(30 * sim.Millisecond)
		})
	}
	r.k.RunUntil(2 * sim.Second)
	if !n1.Joined() || !n2.Joined() {
		t.Fatalf("nodes not joined before the release")
	}
	cycleBefore := r.bs.CycleLength()
	r.k.Schedule(0, func(*sim.Kernel) { n1.EnterBeaconOnly() })
	r.k.RunUntil(4 * sim.Second)

	st := n1.Stats()
	if st.ReleasesSent != 1 {
		t.Fatalf("releases sent = %d, want 1", st.ReleasesSent)
	}
	if got := r.bs.Stats().SlotsReleased; got != 1 {
		t.Fatalf("BS released %d slots, want 1", got)
	}
	if n1.Joined() || n1.Slot() != -1 {
		t.Fatalf("released node still joined (slot %d)", n1.Slot())
	}
	if !n2.Joined() {
		t.Fatalf("survivor lost its slot")
	}
	// The dynamic cycle compacted around the released slot.
	if got := r.bs.CycleLength(); got >= cycleBefore {
		t.Fatalf("cycle %v did not shrink from %v", got, cycleBefore)
	}
	// The parked node keeps network time, dozing through most windows.
	heardAtPark := st.BeaconsHeard
	r.k.RunUntil(6 * sim.Second)
	st = n1.Stats()
	if st.BeaconsHeard <= heardAtPark {
		t.Fatalf("parked node stopped hearing beacons")
	}
	// Doze cadence: of the beacons the compacted cycle fits into 2 s, a
	// stride of parkBeaconEvery hears only a fraction.
	beacons := uint64(2 * sim.Second / r.bs.CycleLength())
	if heard := st.BeaconsHeard - heardAtPark; heard > beacons/parkBeaconEvery+3 {
		t.Fatalf("parked node heard %d of %d beacons in 2s, doze not engaged", heard, beacons)
	}
	if n1.Joined() {
		t.Fatalf("parked node rejoined")
	}
}

// TestBeaconOnlySurvivesCrash checks the mode is sticky across a power
// cycle: the battery does not replenish, so a rebooted beacon-only node
// parks again right after its first beacon instead of requesting a slot.
func TestBeaconOnlySurvivesCrash(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 14)
	n1 := r.addNode(1, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	r.k.RunUntil(500 * sim.Millisecond)
	r.k.Schedule(0, func(*sim.Kernel) { n1.EnterBeaconOnly() })
	r.k.RunUntil(sim.Second)
	ssrAtPark := n1.Stats().SSRSent // the initial join's requests
	r.k.Schedule(0, func(*sim.Kernel) { n1.Crash() })
	r.k.RunUntil(1500 * sim.Millisecond)
	r.k.Schedule(0, func(*sim.Kernel) { n1.Start() })
	r.k.RunUntil(3 * sim.Second)
	if n1.Joined() {
		t.Fatalf("beacon-only node re-acquired a slot after reboot")
	}
	if got := n1.Stats().SSRSent; got != ssrAtPark {
		t.Fatalf("parked node sent %d slot requests after reboot", got-ssrAtPark)
	}
}
