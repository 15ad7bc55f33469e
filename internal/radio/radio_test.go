package radio

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

type rig struct {
	k      *sim.Kernel
	ch     *channel.Channel
	tracer *metrics.Recorder
}

type station struct {
	radio  *Radio
	sched  *tinyos.Sched
	ledger *energy.Ledger
	got    []packet.Frame
}

func newRig() *rig {
	k := sim.NewKernel(7)
	return &rig{k: k, ch: channel.New(k), tracer: metrics.NewRecorder(0)}
}

func (r *rig) station(name string, prof platform.Profile) *station {
	l := energy.NewLedger()
	m := mcu.New(r.k, prof.MCU, l)
	s := tinyos.NewSched(r.k, m, 0)
	st := &station{sched: s, ledger: l}
	st.radio = New(r.k, name, prof.Radio, r.ch, s, l, r.tracer)
	st.radio.SetReceiveHandler(func(f packet.Frame) { st.got = append(st.got, f) })
	return st
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// transmit loads a frame and fires it once the FIFO holds it.
func transmit(r *Radio, dest packet.Address, payload []byte, done func()) {
	r.Load(dest, payload, func() { r.Fire(done) })
}

func TestTransmitDeliversToAddressedReceiver(t *testing.T) {
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	rx := r.station("bs", platform.BaseStation())
	rx.radio.SetRxAddresses(packet.AddrBSData)
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSData, []byte{1, 2, 3}, nil)
	})
	r.k.RunUntil(20 * sim.Millisecond)
	if len(rx.got) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(rx.got))
	}
	if rx.got[0].Dest != packet.AddrBSData || len(rx.got[0].Payload) != 3 {
		t.Fatalf("frame = %+v", rx.got[0])
	}
	if tx.radio.Stats().TxFrames != 1 || rx.radio.Stats().RxAccepted != 1 {
		t.Fatalf("stats: tx=%+v rx=%+v", tx.radio.Stats(), rx.radio.Stats())
	}
}

func TestAddressFilterDropsAndAttributesOverhearing(t *testing.T) {
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	eav := r.station("node2", platform.IMEC())
	eav.radio.SetRxAddresses(packet.NodeAddress(2)) // not the destination
	r.k.Schedule(0, func(*sim.Kernel) { eav.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSData, []byte{1, 2, 3}, nil)
	})
	r.k.RunUntil(20 * sim.Millisecond)
	if len(eav.got) != 0 {
		t.Fatalf("address filter leaked a frame to the MCU")
	}
	if eav.radio.Stats().AddrDrops != 1 {
		t.Fatalf("AddrDrops = %d, want 1", eav.radio.Stats().AddrDrops)
	}
	if eav.ledger.Loss(energy.LossOverhearing) <= 0 {
		t.Fatalf("overhearing loss not attributed")
	}
	if r.tracer.Count(metrics.KindAddrFilter) != 1 {
		t.Fatalf("addr-filter trace missing")
	}
}

func TestCollisionDropsWithCRCAndAttributesLoss(t *testing.T) {
	r := newRig()
	a := r.station("node1", platform.IMEC())
	b := r.station("node2", platform.IMEC())
	bs := r.station("bs", platform.BaseStation())
	bs.radio.SetRxAddresses(packet.AddrBSData)
	r.k.Schedule(0, func(*sim.Kernel) { bs.radio.StartRx() })
	// Fire both nodes so their bursts overlap. Load takes ~ the same time
	// on both, so simultaneous Transmits collide on the air.
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		transmit(a.radio, packet.AddrBSData, []byte{1, 2, 3}, nil)
		transmit(b.radio, packet.AddrBSData, []byte{4, 5, 6}, nil)
	})
	r.k.RunUntil(30 * sim.Millisecond)
	if len(bs.got) != 0 {
		t.Fatalf("collided frames reached the MCU")
	}
	if got := bs.radio.Stats().CRCDrops; got != 2 {
		t.Fatalf("CRCDrops = %d, want 2", got)
	}
	if bs.ledger.Loss(energy.LossCollision) <= 0 {
		t.Fatalf("collision loss not attributed")
	}
}

func TestTxEnergyMatchesCalibration(t *testing.T) {
	// One 18-byte data transmission: settle (195us) + airtime (192us) at
	// TX power = 19.0 uJ, standby during the FIFO load.
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	done := false
	r.k.Schedule(0, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSData, make([]byte, 18), func() { done = true })
	})
	r.k.RunUntil(20 * sim.Millisecond)
	if !done {
		t.Fatalf("transmit completion callback never ran")
	}
	tx.ledger.Flush(r.k.Now())
	meter := tx.ledger.Meter(platform.ComponentRadio)
	wantTxTime := 195*sim.Microsecond + 192*sim.Microsecond
	if got := meter.TimeIn(platform.StateRadioTX); got != wantTxTime {
		t.Fatalf("TX residency = %v, want %v", got, wantTxTime)
	}
	uj := meter.EnergyInJ(platform.StateRadioTX) * 1e6
	if !approx(uj, 19.0, 0.2) {
		t.Fatalf("TX energy = %.2f uJ, want ~19.0", uj)
	}
	// The load occupied the MCU for 21 bytes at 50 kbps = 3.36 ms.
	mcuActive := tx.ledger.Meter(platform.ComponentMCU).TimeIn(platform.StateMCUActive)
	if mcuActive < 3360*sim.Microsecond || mcuActive > 3400*sim.Microsecond {
		t.Fatalf("MCU busy %v during load, want ~3.36ms", mcuActive)
	}
	// Standby residency covers the load.
	if got := meter.TimeIn(platform.StateRadioStandby); got < 3360*sim.Microsecond {
		t.Fatalf("standby residency = %v, want >= 3.36ms", got)
	}
}

func TestRxSettleBlocksCapture(t *testing.T) {
	// A frame already in flight when the receiver wakes is missed.
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	rx := r.station("bs", platform.BaseStation())
	rx.radio.SetRxAddresses(packet.AddrBSData)
	r.k.Schedule(0, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSData, make([]byte, 18), nil)
	})
	// Load = 3.36ms, settle 195us, so the burst flies at ~3.56ms. Turn
	// the receiver on 50us into the burst.
	r.k.Schedule(3600*sim.Microsecond, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.RunUntil(20 * sim.Millisecond)
	if len(rx.got) != 0 {
		t.Fatalf("mid-frame wakeup captured the frame")
	}
}

func TestDrainKeepsRadioInRx(t *testing.T) {
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	rx := r.station("bs", platform.BaseStation())
	rx.radio.SetRxAddresses(packet.AddrBSData)
	var handledAt sim.Time
	rx.radio.SetReceiveHandler(func(packet.Frame) { handledAt = r.k.Now() })
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		transmit(tx.radio, packet.AddrBSData, make([]byte, 18), nil)
	})
	r.k.RunUntil(20 * sim.Millisecond)
	if handledAt == 0 {
		t.Fatalf("frame never handled")
	}
	// End of frame: 1ms + load 3.36ms + settle 195us + air 192us = 4.747ms.
	frameEnd := sim.Millisecond + 3360*sim.Microsecond + 195*sim.Microsecond + 192*sim.Microsecond
	// BS drains 18B at 2Mbps = 72us, then the ISR runs.
	if handledAt < frameEnd+72*sim.Microsecond {
		t.Fatalf("handler at %v, before drain completed (%v)", handledAt, frameEnd+72*sim.Microsecond)
	}
	if rx.radio.Mode() != ModeRx {
		t.Fatalf("radio left RX after drain: %v", rx.radio.Mode())
	}
}

func TestStartRxIdempotentKeepsListenStart(t *testing.T) {
	r := newRig()
	rx := r.station("bs", platform.BaseStation())
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.RunUntil(2 * sim.Millisecond)
	since, ok := rx.radio.ListeningSince()
	if !ok {
		t.Fatalf("not listening")
	}
	if since != 202*sim.Microsecond {
		t.Fatalf("ListeningSince = %v, want 202us (second StartRx must not reset)", since)
	}
}

func TestPowerDownStopsListening(t *testing.T) {
	r := newRig()
	rx := r.station("bs", platform.BaseStation())
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(sim.Millisecond, func(*sim.Kernel) { rx.radio.PowerDown() })
	r.k.RunUntil(2 * sim.Millisecond)
	if _, ok := rx.radio.ListeningSince(); ok {
		t.Fatalf("still listening after PowerDown")
	}
	rx.ledger.Flush(r.k.Now())
	meter := rx.ledger.Meter(platform.ComponentRadio)
	if got := meter.TimeIn(platform.StateRadioRX); got != sim.Millisecond {
		t.Fatalf("RX residency = %v, want 1ms", got)
	}
}

func TestFireWithoutLoadPanics(t *testing.T) {
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	defer func() {
		if recover() == nil {
			t.Fatalf("Fire with empty FIFO did not panic")
		}
	}()
	tx.radio.Fire(nil)
}

func TestLoadWhileReceivingPanics(t *testing.T) {
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	tx.radio.StartRx()
	defer func() {
		if recover() == nil {
			t.Fatalf("Load while receiving did not panic")
		}
	}()
	tx.radio.Load(packet.AddrBSData, []byte{1}, nil)
}

func TestOversizedPayloadPanics(t *testing.T) {
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	defer func() {
		if recover() == nil {
			t.Fatalf("oversized payload did not panic")
		}
	}()
	tx.radio.Load(packet.AddrBSData, make([]byte, 27), nil)
}

func TestLoadThenFireSeparately(t *testing.T) {
	// The MAC preloads the FIFO after the beacon and fires at slot start.
	r := newRig()
	tx := r.station("node1", platform.IMEC())
	rx := r.station("bs", platform.BaseStation())
	rx.radio.SetRxAddresses(packet.AddrBSData)
	loaded := false
	r.k.Schedule(0, func(*sim.Kernel) { rx.radio.StartRx() })
	r.k.Schedule(0, func(*sim.Kernel) {
		tx.radio.Load(packet.AddrBSData, make([]byte, 18), func() { loaded = true })
	})
	r.k.Schedule(10*sim.Millisecond, func(*sim.Kernel) {
		if !loaded {
			t.Errorf("FIFO not loaded by slot start")
		}
		tx.radio.Fire(nil)
	})
	r.k.RunUntil(20 * sim.Millisecond)
	if len(rx.got) != 1 {
		t.Fatalf("preloaded fire not delivered")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeOff: "off", ModeStandby: "standby", ModeTx: "tx", ModeRx: "rx",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}
