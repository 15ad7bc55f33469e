package radio

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
)

// A Stay load without a callback and a Park load end their clock-in without a
// kernel event: the radio stays in standby, or powers down through its
// meter's deferred transition, and Loaded reports the frame once
// dispatch has passed the clock-in's reserved position. These tests pin
// both endings, a crash, a power-down and an early Fire during the
// clock-in, on both schedulers.

// loadRig is fireRig's transmitter loading a 2-byte frame at instant 0,
// parked (Park) or in standby (Stay).
type loadRig struct {
	*fireRig
	park bool
}

func (l *loadRig) load() {
	l.rx.radio.StartRx()
	if l.park {
		l.tx.radio.Load(packet.AddrBSData, []byte{1, 2}, Park())
	} else {
		l.tx.radio.Load(packet.AddrBSData, []byte{1, 2}, Stay(nil))
	}
}

// onEndings runs a subtest on each scheduler for each ending.
func onEndings(t *testing.T, run func(t *testing.T, l *loadRig)) {
	for _, park := range []bool{false, true} {
		name := "standby"
		if park {
			name = "park"
		}
		t.Run(name, func(t *testing.T) {
			onKernels(t, func(t *testing.T, r *rig) { run(t, &loadRig{fireRig: newFireRig(r), park: park}) })
		})
	}
}

// after is the mode a clock-in ends in.
func (l *loadRig) after() Mode {
	if l.park {
		return ModeOff
	}
	return ModeStandby
}

// TestLoadedOncePositionPasses probes Loaded and the mode at the
// clock-in's end: an event filed before the load, whose position
// precedes the reserved one, finds the clock-in running; one filed after
// it finds the frame loaded. The radio is in standby for exactly the
// clock-in, and the frame then flies on Fire.
func TestLoadedOncePositionPasses(t *testing.T) {
	onEndings(t, func(t *testing.T, l *loadRig) {
		type probe struct {
			loaded bool
			mode   Mode
		}
		var before, mid, after probe
		look := func(p *probe) func() {
			return func() { *p = probe{l.tx.radio.Loaded(), l.tx.radio.Mode()} }
		}
		l.at(0, func() {
			l.at(l.end, look(&before))
			l.load()
			l.at(l.end, look(&after))
		})
		l.at(l.end-1, look(&mid))
		l.k.RunUntil(5 * sim.Millisecond)
		if before != (probe{false, ModeStandby}) || mid != before {
			t.Fatalf("before the clock-in's end: %+v and %+v, want not loaded in standby", mid, before)
		}
		if after != (probe{true, l.after()}) {
			t.Fatalf("after the clock-in's end: %+v, want loaded in %v", after, l.after())
		}
		if got := l.residency(platform.StateRadioStandby); l.park && got != l.end {
			t.Fatalf("standby residency %v, want the %v clock-in", got, l.end)
		}
		l.at(l.k.Now(), func() { l.tx.radio.Fire(func() { l.sent++ }) })
		l.k.RunUntil(10 * sim.Millisecond)
		if l.sent != 1 || len(l.rx.got) != 1 || l.tx.radio.Loaded() {
			t.Fatalf("sent ran %d times, %d frames received, loaded %v; want 1, 1, false",
				l.sent, len(l.rx.got), l.tx.radio.Loaded())
		}
	})
}

// TestLoadedCrashMidClockIn crashes the node halfway through the
// clock-in: the frame is lost, and the radio is off from the crash
// instant on, with no move left for the clock-in's end.
func TestLoadedCrashMidClockIn(t *testing.T) {
	onEndings(t, func(t *testing.T, l *loadRig) {
		crashAt := l.end / 2
		l.at(0, l.load)
		l.at(crashAt, func() {
			l.tx.radio.Crash()
			l.tx.sched.MCU().Crash()
			l.tx.sched.Crash()
		})
		// Back in standby before the clock-in would have ended.
		l.at(crashAt+1, func() { l.tx.radio.Standby() })
		l.k.RunUntil(5 * sim.Millisecond)
		if l.tx.radio.Loaded() {
			t.Fatal("frame loaded after a crash mid clock-in")
		}
		if m := l.tx.radio.Mode(); m != ModeStandby {
			t.Fatalf("mode %v after the reboot, want standby", m)
		}
		if off := l.residency(platform.StateRadioOff); off != 1 {
			t.Fatalf("off residency %v, want the 1ns between the crash and the reboot", off)
		}
	})
}

// TestLoadedPowerDownMidClockIn powers the radio down halfway through
// the clock-in, as a MAC closing its windows does: the radio is off from
// then on, and the FIFO still holds the frame once the clock-in ends.
func TestLoadedPowerDownMidClockIn(t *testing.T) {
	onEndings(t, func(t *testing.T, l *loadRig) {
		l.at(0, l.load)
		l.at(l.end/2, func() { l.tx.radio.PowerDown() })
		l.k.RunUntil(5 * sim.Millisecond)
		if !l.tx.radio.Loaded() || l.tx.radio.Mode() != ModeOff {
			t.Fatalf("loaded %v in mode %v, want loaded and off", l.tx.radio.Loaded(), l.tx.radio.Mode())
		}
		if sb := l.residency(platform.StateRadioStandby); sb != l.end/2 {
			t.Fatalf("standby residency %v, want %v", sb, l.end/2)
		}
	})
}

// TestFireBeforeClockInEnd fires a frame whose clock-in is still
// running, as the base station's beacon does when its instant comes
// first: the burst starts as the clock-in ends.
func TestFireBeforeClockInEnd(t *testing.T) {
	onKernels(t, func(t *testing.T, r *rig) {
		l := &loadRig{fireRig: newFireRig(r)}
		l.at(0, func() {
			l.load()
			l.tx.radio.Fire(func() { l.sent++ })
		})
		r.k.RunUntil(10 * sim.Millisecond)
		if l.sent != 1 || len(l.rx.got) != 1 {
			t.Fatalf("sent ran %d times, %d frames received; want 1, 1", l.sent, len(l.rx.got))
		}
		air := l.prof.Radio.Airtime(2)
		if got, want := l.residency(platform.StateRadioTX), l.prof.Radio.TxSettle+air; got != want {
			t.Fatalf("TX residency %v, want settle plus airtime %v", got, want)
		}
		if got := l.residency(platform.StateRadioStandby); got != r.k.Now()-l.prof.Radio.TxSettle-air {
			t.Fatalf("standby residency %v, want the rest of the run", got)
		}
	})
}

// TestStandbyDuringLoadFireClockIn calls Standby while a Burst load's
// clock-in runs, as a base station opening its beacon slot during an
// ack's clock-in does: the radio is in standby already, and the burst
// goes ahead as the clock-in ends.
func TestStandbyDuringLoadFireClockIn(t *testing.T) {
	onKernels(t, func(t *testing.T, r *rig) {
		f := newFireRig(r)
		f.at(0, func() { f.loadFire(t) })
		f.at(f.end/2, func() { f.tx.radio.Standby() })
		r.k.RunUntil(10 * sim.Millisecond)
		if f.sent != 1 || len(f.rx.got) != 1 {
			t.Fatalf("sent ran %d times, %d frames received; want 1, 1", f.sent, len(f.rx.got))
		}
		if got, want := f.residency(platform.StateRadioTX), f.prof.Radio.TxSettle+f.prof.Radio.Airtime(2); got != want {
			t.Fatalf("TX residency %v, want settle plus airtime %v", got, want)
		}
	})
}
