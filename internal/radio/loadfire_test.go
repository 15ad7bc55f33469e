package radio

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
)

// LoadFire's clock-in ends at the MCU's elided completion, with no kernel
// event: the radio leaves standby for TX there through its meter's
// deferred transition and its reserved dispatch position. These tests
// pin that end, a crash on either side of it and CancelFire, on both
// schedulers.

// onKernels runs a subtest on each scheduler.
func onKernels(t *testing.T, run func(t *testing.T, r *rig)) {
	for _, c := range []struct {
		name string
		k    *sim.Kernel
	}{{"wheel", sim.NewKernel(7)}, {"heap", sim.NewHeapKernel(7)}} {
		t.Run(c.name, func(t *testing.T) {
			run(t, &rig{k: c.k, ch: channel.New(c.k), tracer: metrics.NewRecorder(0)})
		})
	}
}

// fireRig is a transmitter that LoadFires a 2-byte frame at instant 0
// towards a listening receiver.
type fireRig struct {
	*rig
	tx, rx *station
	prof   platform.Profile
	sent   int
	// end is the instant the clock-in ends: the sleeping MCU wakes first.
	end sim.Time
}

func newFireRig(r *rig) *fireRig {
	f := &fireRig{rig: r, prof: platform.IMEC()}
	f.tx = r.station("node1", f.prof)
	f.rx = r.station("bs", platform.BaseStation())
	f.rx.radio.SetRxAddresses(packet.AddrBSData)
	f.end = f.prof.MCU.WakeupLatency + f.prof.Radio.TxClockIn(f.prof.Radio.AddressBytes+2)
	return f
}

// loadFire starts the receiver and the LoadFire; call it at instant 0.
func (f *fireRig) loadFire(t *testing.T) {
	f.rx.radio.StartRx()
	f.tx.radio.LoadFire(packet.AddrBSData, []byte{1, 2}, func() { f.sent++ })
	if at := f.tx.sched.MCU().Completion().At; at != f.end {
		t.Fatalf("clock-in ends at %v, want %v", at, f.end)
	}
}

// at runs fn at instant t.
func (f *fireRig) at(t sim.Time, fn func()) { f.k.ScheduleAt(t, func(*sim.Kernel) { fn() }) }

// residency reports the transmitter radio's time in state s up to now.
func (f *fireRig) residency(s energy.State) sim.Time {
	f.tx.ledger.Flush(f.k.Now())
	c, _ := f.tx.ledger.Report().Component(platform.ComponentRadio)
	return c.States.Get(s).Time
}

// wantNothingOnAir checks that no frame reached the medium or the
// receiver, and that the sent callback never ran.
func (f *fireRig) wantNothingOnAir(t *testing.T) {
	t.Helper()
	if n := f.ch.Stats().Transmissions; n != 0 || len(f.rx.got) != 0 || f.sent != 0 {
		t.Fatalf("%d transmissions, %d frames received, sent ran %d times; want none", n, len(f.rx.got), f.sent)
	}
	if n := f.tx.radio.Stats().TxFrames; n != 0 {
		t.Fatalf("TxFrames %d, want 0", n)
	}
}

// TestLoadFireModeStandbyUntilPositionPasses probes the mode at the
// clock-in's end: an event filed before the LoadFire, whose position
// precedes the reserved one, still finds standby; one filed after it
// finds TX. The frame then flies like Load and Fire.
func TestLoadFireModeStandbyUntilPositionPasses(t *testing.T) {
	onKernels(t, func(t *testing.T, r *rig) {
		f := newFireRig(r)
		var before, after Mode
		f.at(0, func() {
			f.at(f.end, func() { before = f.tx.radio.Mode() })
			f.loadFire(t)
			f.at(f.end, func() { after = f.tx.radio.Mode() })
			if m := f.tx.radio.Mode(); m != ModeStandby {
				t.Errorf("mode %v as the clock-in starts, want standby", m)
			}
		})
		f.at(f.end-1, func() {
			if m := f.tx.radio.Mode(); m != ModeStandby {
				t.Errorf("mode %v just before the clock-in ends, want standby", m)
			}
		})
		r.k.RunUntil(10 * sim.Millisecond)
		if before != ModeStandby || after != ModeTx {
			t.Fatalf("at the clock-in's end: mode %v before its position, %v after; want standby, tx", before, after)
		}
		if f.sent != 1 || len(f.rx.got) != 1 || f.tx.radio.Stats().TxFrames != 1 {
			t.Fatalf("sent ran %d times, %d frames received; want 1, 1", f.sent, len(f.rx.got))
		}
		air := f.prof.Radio.Airtime(2)
		if got, want := f.residency(platform.StateRadioTX), f.prof.Radio.TxSettle+air; got != want {
			t.Fatalf("TX residency %v, want settle plus airtime %v", got, want)
		}
		if got := f.residency(platform.StateRadioStandby); got != r.k.Now()-f.prof.Radio.TxSettle-air {
			t.Fatalf("standby residency %v, want the rest of the run", got)
		}
	})
}

// TestLoadFireCrashMidClockIn crashes the node halfway through the
// clock-in: nothing reaches the air, and the radio is off from the crash
// instant, never in TX.
func TestLoadFireCrashMidClockIn(t *testing.T) {
	onKernels(t, func(t *testing.T, r *rig) {
		f := newFireRig(r)
		crashAt := f.end / 2
		f.at(0, func() { f.loadFire(t) })
		f.at(crashAt, func() {
			f.tx.radio.Crash()
			f.tx.sched.MCU().Crash()
		})
		r.k.RunUntil(10 * sim.Millisecond)
		f.wantNothingOnAir(t)
		if m := f.tx.radio.Mode(); m != ModeOff {
			t.Fatalf("mode %v after the crash, want off", m)
		}
		if tx, sb := f.residency(platform.StateRadioTX), f.residency(platform.StateRadioStandby); tx != 0 || sb != crashAt {
			t.Fatalf("TX %v and standby %v, want 0 and the %v up to the crash", tx, sb, crashAt)
		}
	})
}

// TestLoadFireCrashMidSettle crashes the node while the PLL settles: the
// radio was in TX from the clock-in's end to the crash, and nothing
// reaches the air.
func TestLoadFireCrashMidSettle(t *testing.T) {
	onKernels(t, func(t *testing.T, r *rig) {
		f := newFireRig(r)
		crashAt := f.end + f.prof.Radio.TxSettle/2
		f.at(0, func() { f.loadFire(t) })
		f.at(crashAt, func() {
			if m := f.tx.radio.Mode(); m != ModeTx {
				t.Errorf("mode %v while settling, want tx", m)
			}
			f.tx.radio.Crash()
		})
		r.k.RunUntil(10 * sim.Millisecond)
		f.wantNothingOnAir(t)
		if tx, sb := f.residency(platform.StateRadioTX), f.residency(platform.StateRadioStandby); tx != crashAt-f.end || sb != f.end {
			t.Fatalf("TX %v and standby %v, want %v and %v", tx, sb, crashAt-f.end, f.end)
		}
	})
}

// TestCancelFireBeforeClockInEnd calls the burst off mid clock-in: the
// radio stays in standby until the clock-in ends, then powers down,
// nothing reaches the air, and the radio fires the next frame normally.
func TestCancelFireBeforeClockInEnd(t *testing.T) {
	onKernels(t, func(t *testing.T, r *rig) {
		f := newFireRig(r)
		var atEnd Mode
		f.at(0, func() { f.loadFire(t) })
		f.at(f.end/2, func() {
			f.tx.radio.CancelFire()
			if m := f.tx.radio.Mode(); m != ModeStandby {
				t.Errorf("mode %v after CancelFire mid clock-in, want standby", m)
			}
			f.at(f.end, func() { atEnd = f.tx.radio.Mode() })
		})
		r.k.RunUntil(5 * sim.Millisecond)
		f.wantNothingOnAir(t)
		if atEnd != ModeOff {
			t.Fatalf("mode %v as the clock-in ends, want off", atEnd)
		}
		if tx, sb := f.residency(platform.StateRadioTX), f.residency(platform.StateRadioStandby); tx != 0 || sb != f.end {
			t.Fatalf("TX %v and standby %v, want 0 and %v", tx, sb, f.end)
		}
		f.at(r.k.Now(), func() {
			f.tx.radio.LoadFire(packet.AddrBSData, []byte{3, 4}, func() { f.sent++ })
		})
		r.k.RunUntil(10 * sim.Millisecond)
		if f.sent != 1 || len(f.rx.got) != 1 {
			t.Fatalf("the next frame: sent ran %d times, %d frames received; want 1, 1", f.sent, len(f.rx.got))
		}
	})
}

// TestCancelFireAfterClockInEnd calls the burst off once the clock-in has
// ended, at its very instant and during the settle: it does nothing, and
// the frame flies.
func TestCancelFireAfterClockInEnd(t *testing.T) {
	for _, c := range []struct {
		name  string
		delay sim.Time // after the clock-in's end
	}{{"at the end", 0}, {"mid-settle", 50 * sim.Microsecond}} {
		t.Run(c.name, func(t *testing.T) {
			onKernels(t, func(t *testing.T, r *rig) {
				f := newFireRig(r)
				f.at(0, func() {
					f.loadFire(t)
					// Filed after the clock-in's reserved position.
					f.at(f.end+c.delay, func() {
						f.tx.radio.CancelFire()
						if m := f.tx.radio.Mode(); m != ModeTx {
							t.Errorf("mode %v after a late CancelFire, want tx", m)
						}
					})
				})
				r.k.RunUntil(10 * sim.Millisecond)
				if f.sent != 1 || len(f.rx.got) != 1 || f.tx.radio.Stats().TxFrames != 1 {
					t.Fatalf("sent ran %d times, %d frames received; want 1, 1", f.sent, len(f.rx.got))
				}
			})
		})
	}
}
