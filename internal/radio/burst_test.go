package radio

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
)

// probe is a listening transceiver that notes the dispatch (the kernel's
// executed count) of each delivery it takes. Attached after the radios,
// it takes the last delivery of every frame.
type probe struct {
	k      *sim.Kernel
	causes []channel.Corruption
	at     []uint64
}

func (p *probe) ChannelID() string                { return "probe" }
func (p *probe) ListeningSince() (sim.Time, bool) { return 0, true }
func (p *probe) Deliver(_ []byte, cause channel.Corruption) {
	p.causes = append(p.causes, cause)
	p.at = append(p.at, p.k.Executed())
}
func (p *probe) EndBurst(uint64) {}

// burstRig is a sender, a listening base station and a probe attached
// last.
type burstRig struct {
	*rig
	tx, bs *station
	probe  *probe
}

func newBurstRig(prof platform.Profile) *burstRig {
	r := newRig()
	b := &burstRig{rig: r, tx: r.station("node1", prof), bs: r.station("bs", platform.BaseStation()),
		probe: &probe{k: r.k}}
	r.ch.Attach(b.probe)
	b.bs.radio.SetRxAddresses(packet.AddrBSData)
	r.k.Schedule(0, func(*sim.Kernel) { b.bs.radio.StartRx() })
	return b
}

// TestBurstEndsAfterLastDelivery checks that a burst ends in the same
// dispatch as its frame's deliveries, after the last of them, with or
// without a blackout window on one of the paths.
func TestBurstEndsAfterLastDelivery(t *testing.T) {
	for _, blackout := range []bool{false, true} {
		b := newBurstRig(platform.IMEC())
		if blackout {
			b.ch.SetBlackout("node1", "bs", true)
		}
		var doneAt uint64
		var deliveriesBefore int
		var modeAtDone Mode
		var endAt sim.Time
		b.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
			transmit(b.tx.radio, packet.AddrBSData, make([]byte, 18), func() {
				doneAt, deliveriesBefore = b.k.Executed(), len(b.probe.at)
				modeAtDone, endAt = b.tx.radio.Mode(), b.k.Now()
			})
		})
		b.k.RunUntil(20 * sim.Millisecond)

		if len(b.probe.at) != 1 || b.probe.causes[0] != channel.Clean {
			t.Fatalf("blackout %v: probe took %v, want one clean frame", blackout, b.probe.causes)
		}
		if doneAt != b.probe.at[0] || deliveriesBefore != 1 {
			t.Fatalf("blackout %v: burst ended in dispatch %d after %d deliveries; the last delivery ran in dispatch %d",
				blackout, doneAt, deliveriesBefore, b.probe.at[0])
		}
		if modeAtDone != ModeStandby || b.tx.radio.Stats().TxFrames != 1 {
			t.Fatalf("blackout %v: mode %v at burst end, %d frames; want standby and 1",
				blackout, modeAtDone, b.tx.radio.Stats().TxFrames)
		}
		st := b.ch.Stats()
		if blackout {
			if st.BlackoutDrops != 1 || len(b.bs.got) != 0 {
				t.Fatalf("blackout: %d drops, base station took %d frames; want 1 and 0", st.BlackoutDrops, len(b.bs.got))
			}
		} else if len(b.bs.got) != 1 || b.bs.radio.LastRxFrameEnd() != endAt {
			t.Fatalf("base station took %d frames ending at %v; want 1 ending at the burst end %v",
				len(b.bs.got), b.bs.radio.LastRxFrameEnd(), endAt)
		}
	}
}

// TestCrashMidBurstTruncatesFrame crashes the sender on the air: every
// receiver gets a truncated frame at its end, and the burst completes
// nothing.
func TestCrashMidBurstTruncatesFrame(t *testing.T) {
	b := newBurstRig(platform.IMEC())
	prm := platform.IMEC().Radio
	done := 0
	b.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		b.tx.radio.Load(packet.AddrBSData, make([]byte, 18), func() {
			b.tx.radio.Fire(func() { done++ })
			b.k.Schedule(prm.TxSettle+prm.Airtime(18)/2, func(*sim.Kernel) { b.tx.radio.Crash() })
		})
	})
	b.k.RunUntil(20 * sim.Millisecond)

	if done != 0 || b.tx.radio.Stats().TxFrames != 0 || b.tx.radio.Mode() != ModeOff {
		t.Fatalf("crashed burst: %d callbacks, %d frames, mode %v; want 0, 0, off",
			done, b.tx.radio.Stats().TxFrames, b.tx.radio.Mode())
	}
	if st := b.ch.Stats(); st.Truncated != 1 || st.CorruptCopies != 2 {
		t.Fatalf("channel %+v, want 1 truncated frame delivered as 2 corrupt copies", st)
	}
	if len(b.probe.causes) != 1 || b.probe.causes[0] != channel.Truncated {
		t.Fatalf("probe took %v, want one truncated frame", b.probe.causes)
	}
	if st := b.bs.radio.Stats(); st.CRCDrops != 1 || st.RxAccepted != 0 {
		t.Fatalf("base station %+v, want the frame dropped on CRC", st)
	}
}

// TestCrashAtBurstEndCompletesNothing crashes the sender at its frame's
// end instant, in an event that dispatches before the frame's end: the
// frame left the air whole, so it reaches the receivers, but the burst
// completes nothing.
func TestCrashAtBurstEndCompletesNothing(t *testing.T) {
	b := newBurstRig(platform.IMEC())
	prm := platform.IMEC().Radio
	done := 0
	b.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		b.tx.radio.Load(packet.AddrBSData, make([]byte, 18), func() {
			b.tx.radio.Fire(func() { done++ })
			// Scheduled before settle puts the frame on the air, so it
			// precedes the frame's end at the same instant.
			b.k.Schedule(prm.TxSettle+prm.Airtime(18), func(*sim.Kernel) { b.tx.radio.Crash() })
		})
	})
	b.k.RunUntil(20 * sim.Millisecond)

	if done != 0 || b.tx.radio.Stats().TxFrames != 0 || b.tx.radio.Mode() != ModeOff {
		t.Fatalf("burst crashed at its end: %d callbacks, %d frames, mode %v; want 0, 0, off",
			done, b.tx.radio.Stats().TxFrames, b.tx.radio.Mode())
	}
	if st := b.ch.Stats(); st.Truncated != 0 || st.Deliveries != 2 {
		t.Fatalf("channel %+v, want 2 clean deliveries", st)
	}
	if len(b.bs.got) != 1 {
		t.Fatalf("base station took %d frames, want 1", len(b.bs.got))
	}
}

// TestStaleFrameEndLeavesNewBurstAlone crashes the sender mid-burst and
// fires a new frame that is on the air when the crashed frame's end
// dispatches. That end hands back the old generation: the new burst
// stays in TX and ends, once, at its own end.
func TestStaleFrameEndLeavesNewBurstAlone(t *testing.T) {
	prof := platform.IMEC()
	prof.Radio.TxSettle = 100 * sim.Microsecond
	prof.Radio.BitrateHz = 10e3 // a 1-byte frame is 5.6ms on the air
	air1 := prof.Radio.Airtime(1)
	b := newBurstRig(prof)
	done1, done2 := 0, 0
	var fire1, fire2, done2At sim.Time
	b.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		b.tx.radio.Load(packet.AddrBSData, []byte{1}, func() {
			fire1 = b.k.Now()
			b.tx.radio.Fire(func() { done1++ })
			b.k.Schedule(2*prof.Radio.TxSettle, func(*sim.Kernel) {
				b.tx.radio.Crash()
				b.tx.radio.Standby() // the node reboots at once
				b.tx.radio.Load(packet.AddrBSData, []byte{2, 2}, func() {
					fire2 = b.k.Now()
					b.tx.radio.Fire(func() { done2++; done2At = b.k.Now() })
				})
			})
			// Just past the crashed frame's end.
			b.k.Schedule(prof.Radio.TxSettle+air1+sim.Microsecond, func(*sim.Kernel) {
				if fire2 == 0 || b.k.Now() >= fire2+prof.Radio.TxSettle+prof.Radio.Airtime(2) {
					t.Errorf("the new frame is not on the air at the crashed frame's end")
				}
				if m, n := b.tx.radio.Mode(), b.tx.radio.Stats().TxFrames; m != ModeTx || n != 0 || done2 != 0 {
					t.Errorf("after the crashed frame's end: mode %v, %d frames, %d callbacks; want tx, 0, 0", m, n, done2)
				}
			})
		})
	})
	b.k.RunUntil(100 * sim.Millisecond)

	if fire1 == 0 || done1 != 0 || done2 != 1 {
		t.Fatalf("callbacks ran %d (crashed frame) and %d (new frame) times, want 0 and 1", done1, done2)
	}
	if want := fire2 + prof.Radio.TxSettle + prof.Radio.Airtime(2); done2At != want {
		t.Fatalf("new burst ended at %v, want %v", done2At, want)
	}
	if n := b.tx.radio.Stats().TxFrames; n != 1 || b.tx.radio.Mode() != ModeStandby {
		t.Fatalf("%d frames, mode %v; want 1 and standby", n, b.tx.radio.Mode())
	}
}
