package radio

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
)

func TestAccessors(t *testing.T) {
	r := newRig()
	st := r.station("node1", platform.IMEC())
	if st.radio.Name() != "node1" {
		t.Fatalf("Name = %q", st.radio.Name())
	}
	if st.radio.Params().TxA != 17.54e-3 {
		t.Fatalf("Params not exposed")
	}
	if got := st.radio.TxPowerW(); got < 0.049 || got > 0.050 {
		t.Fatalf("TxPowerW = %v", got)
	}
	if got := st.radio.RxPowerW(); got < 0.069 || got > 0.070 {
		t.Fatalf("RxPowerW = %v", got)
	}
}

func TestResetAccountingClearsCounters(t *testing.T) {
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	rx := r.station("bs", platform.BaseStation())
	rx.radio.SetRxAddresses(packet.AddrBSData)
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSData, []byte{1, 2, 3}, nil)
	})
	r.k.RunUntil(20 * sim.Millisecond)
	if rx.radio.Stats().RxAccepted != 1 {
		t.Fatalf("precondition: reception not recorded")
	}
	rx.radio.ResetAccounting()
	tx.radio.ResetAccounting()
	if rx.radio.Stats() != (Stats{}) {
		t.Fatalf("rx accounting survived reset")
	}
	if tx.radio.Stats().TxFrames != 0 {
		t.Fatalf("tx accounting survived reset")
	}
}

func TestLastRxFrameEndStamps(t *testing.T) {
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	rx := r.station("bs", platform.BaseStation())
	rx.radio.SetRxAddresses(packet.AddrBSData)
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSData, make([]byte, 18), nil)
	})
	r.k.RunUntil(20 * sim.Millisecond)
	// Frame end = 1ms + MCU wake 6us + load 3.36ms + settle 195us +
	// air 192us.
	want := sim.Millisecond + 6*sim.Microsecond + 3360*sim.Microsecond +
		195*sim.Microsecond + 192*sim.Microsecond
	if got := rx.radio.LastRxFrameEnd(); got != want {
		t.Fatalf("LastRxFrameEnd = %v, want %v", got, want)
	}
}

func TestStandbyFromRxStopsListening(t *testing.T) {
	r := newRig()
	rx := r.station("bs", platform.BaseStation())
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) { rx.radio.Standby() })
	r.k.RunUntil(2 * sim.Millisecond)
	if rx.radio.Mode() != ModeStandby {
		t.Fatalf("mode = %v, want standby", rx.radio.Mode())
	}
	if _, ok := rx.radio.ListeningSince(); ok {
		t.Fatalf("still listening in standby")
	}
}

func TestStandbyAbortsDrain(t *testing.T) {
	// Repurposing the radio mid-drain discards the frame: the handler
	// must never fire for it.
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	rx := r.station("node2", platform.IMEC()) // slow drain: 18B at 100kbps = 1.44ms
	rx.radio.SetRxAddresses(packet.AddrBSData)
	got := 0
	rx.radio.SetReceiveHandler(func(packet.Frame) { got++ })
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSData, make([]byte, 18), nil)
	})
	// Frame ends at ~4.75ms; drain runs until ~6.19ms. Interrupt it.
	r.k.Schedule(5*sim.Millisecond, func(*sim.Kernel) { rx.radio.Standby() })
	r.k.RunUntil(20 * sim.Millisecond)
	if got != 0 {
		t.Fatalf("aborted drain still delivered the frame")
	}
	if rx.radio.Stats().RxAccepted != 0 {
		t.Fatalf("aborted drain counted as accepted")
	}
}

func TestRestartedRxDoesNotOrphanDrain(t *testing.T) {
	// Standby + StartRx abandons a drain, and a second frame starts its
	// own drain before the abandoned one would have ended. Only the
	// second drain may complete: the handler sees the second frame,
	// intact, at the second drain's end, and never the first.
	r := newRig()
	prm := platform.IMEC().Radio
	tx1 := r.station("node1", platform.IMEC())
	tx2 := r.station("node3", platform.IMEC())
	rx := r.station("node2", platform.IMEC()) // 24B drain at 100kbps = 1.92ms
	rx.radio.SetRxAddresses(packet.AddrBSData)
	var payloads [][]byte
	var at []sim.Time
	rx.radio.SetReceiveHandler(func(f packet.Frame) {
		payloads = append(payloads, append([]byte(nil), f.Payload...))
		at = append(at, r.k.Now())
	})
	second := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	var end2 sim.Time
	r.k.Schedule(0, func(*sim.Kernel) {
		rx.radio.StartRx()
		tx2.radio.Load(packet.AddrBSData, second, nil) // fired later
	})
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		// The first frame ends at ~5.76ms and drains until ~7.68ms.
		transmit(tx1.radio, packet.AddrBSData, make([]byte, 24), func() {
			r.k.Schedule(1200*sim.Microsecond, func(*sim.Kernel) {
				rx.radio.Standby()
				rx.radio.StartRx()
				// The second frame ends at ~7.49ms, inside the first
				// frame's abandoned drain window.
				r.k.Schedule(prm.RxSettle, func(*sim.Kernel) {
					tx2.radio.Fire(func() { end2 = r.k.Now() })
				})
			})
		})
	})
	r.k.RunUntil(20 * sim.Millisecond)
	if len(payloads) != 1 {
		t.Fatalf("handler ran %d times at %v, want once", len(payloads), at)
	}
	if string(payloads[0]) != string(second) {
		t.Fatalf("handler got payload %v, want the second frame's %v", payloads[0], second)
	}
	if want := end2 + prm.RxClockOut(len(second)); at[0] != want {
		t.Fatalf("second frame handled at %v, want its drain end %v", at[0], want)
	}
	// RxAccepted counts frames handed to the MCU; the abandoned first
	// frame is not one.
	if st := rx.radio.Stats(); st.RxAccepted != 1 || st.CRCDrops != 0 {
		t.Fatalf("stats %+v, want 1 accepted and no CRC drops", st)
	}
}

func TestPowerDownDuringTransmitPanics(t *testing.T) {
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	panicked := false
	r.k.Schedule(0, func(*sim.Kernel) {
		tx.radio.Load(packet.AddrBSData, []byte{1}, func() { tx.radio.Fire(nil) })
	})
	// Mid-burst (load 640us + settle 195us; air 56us): 700us is inside
	// the settle/burst window.
	r.k.Schedule(700*sim.Microsecond, func(*sim.Kernel) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		tx.radio.PowerDown()
	})
	r.k.RunUntil(5 * sim.Millisecond)
	if !panicked {
		t.Fatalf("PowerDown during burst did not panic")
	}
}

func TestSetRxAddressesMultiplePipes(t *testing.T) {
	// The base station listens on data and control pipes simultaneously.
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	rx := r.station("bs", platform.BaseStation())
	rx.radio.SetRxAddresses(packet.AddrBSData, packet.AddrBSControl)
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSControl, []byte{1, 2, 3, 4}, nil)
	})
	r.k.Schedule(10*sim.Millisecond, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSData, make([]byte, 18), nil)
	})
	r.k.RunUntil(30 * sim.Millisecond)
	if got := len(rx.got); got != 2 {
		t.Fatalf("accepted %d frames across two pipes, want 2", got)
	}
	if rx.got[0].Dest != packet.AddrBSControl || rx.got[1].Dest != packet.AddrBSData {
		t.Fatalf("pipe dispatch wrong: %+v", rx.got)
	}
}

func TestLoadOverwritesPreviousFIFOContent(t *testing.T) {
	// Loading twice before firing replaces the FIFO frame, like writing
	// the hardware FIFO again.
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	rx := r.station("bs", platform.BaseStation())
	rx.radio.SetRxAddresses(packet.AddrBSData)
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		tx.radio.Load(packet.AddrBSData, []byte{1}, func() {
			tx.radio.Load(packet.AddrBSData, []byte{2, 2}, func() {
				tx.radio.Fire(nil)
			})
		})
	})
	r.k.RunUntil(30 * sim.Millisecond)
	if len(rx.got) != 1 || len(rx.got[0].Payload) != 2 {
		t.Fatalf("fired frame = %+v, want the second load", rx.got)
	}
}
