package radio

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
)

// slowTxProfile stretches the PLL settle and the burst past a FIFO load
// (646us for a 1-byte payload), so a crashed radio can be loaded and
// fired again before its stale settle or burst-end event dispatches, and
// the new burst still starts after the truncated one has left the air.
func slowTxProfile() platform.Profile {
	p := platform.IMEC()
	p.Radio.TxSettle = 6 * sim.Millisecond
	p.Radio.BitrateHz = 10e3 // a 1-byte frame is 7 bytes, 5.6ms on the air
	return p
}

// TestCrashStaleEventsLeaveReusedRadioAlone crashes a transmitter at
// three points of its frame and uses the radio again before the crashed
// frame's pending event dispatches. The stale event must not put the new
// frame on the air, count a frame, change the mode or run a callback.
func TestCrashStaleEventsLeaveReusedRadioAlone(t *testing.T) {
	prof := slowTxProfile()
	settle := prof.Radio.TxSettle
	air1 := prof.Radio.Airtime(1)
	cases := []struct {
		name string
		// crashAfter is the crash instant, relative to the first Fire.
		crashAfter sim.Time
		// probeAfter is an instant just past the stale event, relative to
		// the crash, and probeMode the mode the radio must be in then.
		probeAfter sim.Time
		probeMode  Mode
		// restartRx turns the receiver on at the crash instant; the
		// radio is reloaded from standby once the stale event is past.
		restartRx bool
		// heard is the payload length of each frame the receiver takes.
		heard []int
	}{
		{"during settle", sim.Millisecond, settle, ModeTx, false, []int{2}},
		{"mid-burst", settle + sim.Millisecond, air1, ModeTx, false, []int{2}},
		{"at burst end", settle + air1, sim.Microsecond, ModeRx, true, []int{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig()
			tx := r.station("node1", prof)
			rx := r.station("bs", platform.BaseStation())
			rx.radio.SetRxAddresses(packet.AddrBSData)
			var heard []int
			var heardEnd []sim.Time
			rx.radio.SetReceiveHandler(func(f packet.Frame) {
				heard = append(heard, len(f.Payload))
				heardEnd = append(heardEnd, rx.radio.LastRxFrameEnd())
			})
			done1, done2 := 0, 0
			var fire2, done2At sim.Time
			reload := func() {
				tx.radio.Load(packet.AddrBSData, []byte{2, 2}, func() {
					fire2 = r.k.Now()
					tx.radio.Fire(func() { done2++; done2At = r.k.Now() })
				})
			}
			r.k.Schedule(0, func(*sim.Kernel) {
				rx.radio.StartRx()
				tx.radio.Load(packet.AddrBSData, []byte{1}, func() {
					tx.radio.Fire(func() { done1++ })
					// Scheduled before the burst's own events, so at the
					// burst-end instant the crash dispatches first.
					crashAt := r.k.Now() + tc.crashAfter
					r.k.ScheduleAt(crashAt, func(*sim.Kernel) {
						tx.radio.Crash()
						if tc.restartRx {
							tx.radio.StartRx()
							return
						}
						tx.radio.Standby()
						reload()
					})
					r.k.ScheduleAt(crashAt+tc.probeAfter, func(*sim.Kernel) {
						if m := tx.radio.Mode(); m != tc.probeMode {
							t.Errorf("mode %v after the stale event, want %v", m, tc.probeMode)
						}
						if n := tx.radio.Stats().TxFrames; n != 0 || r.ch.Busy() {
							t.Errorf("after the stale event: TxFrames = %d, channel busy %v; want 0, false", n, r.ch.Busy())
						}
						if tc.restartRx {
							tx.radio.Standby()
							reload()
						}
					})
				})
			})
			r.k.RunUntil(100 * sim.Millisecond)

			if done1 != 0 || done2 != 1 {
				t.Fatalf("callbacks ran %d (crashed frame) and %d (new frame) times, want 0 and 1", done1, done2)
			}
			end2 := fire2 + settle + prof.Radio.Airtime(2)
			if done2At != end2 {
				t.Fatalf("new frame's burst ended at %v, want %v", done2At, end2)
			}
			if st := tx.radio.Stats(); st.TxFrames != 1 {
				t.Fatalf("TxFrames %d, want 1", st.TxFrames)
			}
			if len(heard) != len(tc.heard) {
				t.Fatalf("receiver took frames of %v bytes, want %v", heard, tc.heard)
			}
			for i, n := range tc.heard {
				if heard[i] != n {
					t.Fatalf("receiver took frames of %v bytes, want %v", heard, tc.heard)
				}
			}
			if got := heardEnd[len(heardEnd)-1]; got != end2 {
				t.Fatalf("new frame left the air at %v, want %v", got, end2)
			}
		})
	}
}

// TestFrameCycleAllocationFree pins the steady-state frame cycle, Load
// through Fire (or LoadFire), settle, burst end, Deliver and drain to the
// receive handler, to zero allocations.
func TestFrameCycleAllocationFree(t *testing.T) {
	for _, loadFire := range []bool{false, true} {
		r := newRig()
		tx := r.station("node1", platform.IMEC())
		rx := r.station("bs", platform.BaseStation())
		rx.radio.SetRxAddresses(packet.AddrBSData)
		got := 0
		rx.radio.SetReceiveHandler(func(packet.Frame) { got++ })
		payload := make([]byte, 18)
		sent := 0
		fire := func() { tx.radio.Fire(nil) }
		cycle := func() {
			rx.radio.StartRx()
			if loadFire {
				tx.radio.LoadFire(packet.AddrBSData, payload, nil)
			} else {
				tx.radio.Load(packet.AddrBSData, payload, fire)
			}
			r.k.RunUntil(r.k.Now() + 10*sim.Millisecond)
			sent++
		}
		for i := 0; i < 20; i++ { // grow the pools
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Fatalf("frame cycle (LoadFire %v) allocates %.2f times per frame", loadFire, allocs)
		}
		if got != sent || rx.radio.Stats().RxAccepted != uint64(sent) {
			t.Fatalf("LoadFire %v: handler ran %d times, RxAccepted %d, for %d frames",
				loadFire, got, rx.radio.Stats().RxAccepted, sent)
		}
	}
}
