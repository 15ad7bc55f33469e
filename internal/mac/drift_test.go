package mac

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// driftRig builds a static BS plus one node with the given oscillator
// error and runs it for the given horizon.
func driftRun(t *testing.T, cycle sim.Time, driftPPM float64, horizon sim.Time) Stats {
	t.Helper()
	r := newRig(t, ProtoStatic, cycle, 21)
	prof := platform.IMEC()
	// Rebuild the node with drift via NodeConfig (the rig helper builds
	// drift-free nodes).
	n := r.addNode(1, ProtoStatic)
	n.cfg.ClockDriftPPM = driftPPM
	_ = prof
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n.Start()
	})
	r.k.RunUntil(horizon)
	return n.Stats()
}

func TestCrystalDriftAbsorbedByGuard(t *testing.T) {
	// 80 ppm crystal error over a 120 ms cycle shifts the window by
	// ~10 us; the 2.2 ms static guard absorbs it with orders of
	// magnitude to spare.
	st := driftRun(t, 120*sim.Millisecond, 80, 10*sim.Second)
	if st.BeaconsMissed != 0 {
		t.Fatalf("crystal-grade drift missed %d beacons", st.BeaconsMissed)
	}
	if st.BeaconsHeard < 75 {
		t.Fatalf("heard only %d beacons", st.BeaconsHeard)
	}
}

func TestDCOGradeDriftStillWithinGuardAtShortCycles(t *testing.T) {
	// A 3% DCO error over a 30 ms cycle is a 900 us shift — inside the
	// 2.2 ms static guard, so short cycles tolerate even the internal
	// oscillator. (This is why the platform can afford to run its
	// low-power timers off the DCO at high duty cycles.)
	st := driftRun(t, 30*sim.Millisecond, 30000, 10*sim.Second)
	if st.BeaconsMissed > st.BeaconsHeard/50 {
		t.Fatalf("3%% drift at 30 ms cycle: %d missed vs %d heard",
			st.BeaconsMissed, st.BeaconsHeard)
	}
}

func TestDCOGradeDriftOverrunsGuardAtLongCycles(t *testing.T) {
	// The same 3% error over a 120 ms cycle is a 3.6 ms shift — beyond
	// the guard. A slow clock (positive drift) opens the window after
	// the beacon has flown: the node must miss beacons and survive by
	// resynchronising (window timeouts, rejoins), not die.
	st := driftRun(t, 120*sim.Millisecond, 30000, 20*sim.Second)
	if st.BeaconsMissed == 0 {
		t.Fatalf("3%% drift at 120 ms cycle should overrun the 2.2 ms guard")
	}
	// The node keeps recovering: every resync gives it one good beacon.
	if st.BeaconsHeard < 10 {
		t.Fatalf("node never resynchronised: heard=%d missed=%d",
			st.BeaconsHeard, st.BeaconsMissed)
	}
}

func TestFastClockWithinGuardTolerated(t *testing.T) {
	// A fast clock (negative drift) opens the window early and times the
	// window out early; with the guard-symmetric timeout, a drift of
	// 1.5% over a 120 ms cycle (1.8 ms shift, inside the 2.2 ms guard)
	// costs energy (longer windows) but not synchronisation.
	st := driftRun(t, 120*sim.Millisecond, -15000, 10*sim.Second)
	if st.BeaconsMissed > 2 {
		t.Fatalf("fast clock inside guard missed %d beacons", st.BeaconsMissed)
	}
	if st.BeaconsHeard < 75 {
		t.Fatalf("heard only %d beacons", st.BeaconsHeard)
	}
}

func TestDriftedNodeStillDeliversData(t *testing.T) {
	r := newRig(t, ProtoStatic, 60*sim.Millisecond, 23)
	n := r.addNode(1, ProtoStatic)
	n.cfg.ClockDriftPPM = 500 // sloppy crystal
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n.Start()
	})
	n.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n.Send(make([]byte, 18)) })
		tm.StartPeriodic(60 * sim.Millisecond)
	})
	r.k.RunUntil(5 * sim.Second)
	st := n.Stats()
	if st.DataSent < 70 || st.DataAcked < st.DataSent-2 {
		t.Fatalf("drifted node data flow broken: %+v", st)
	}
	// The slot fires shifted by drift x offset (< 30 us here), still
	// well inside the base station's slot mapping.
	if r.bs.Stats().StrayFrames != 0 {
		t.Fatalf("slot mapping broke under drift: %d strays", r.bs.Stats().StrayFrames)
	}
}
