package mac

import (
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

// TestSlotBeforeClockInEndIsSkipped queues a frame a millisecond before
// the node's slot, so its FIFO clock-in is still running when the slot
// comes: the slot is skipped, the radio powers down as the clock-in
// ends, and the frame flies in the next cycle's slot.
func TestSlotBeforeClockInEndIsSkipped(t *testing.T) {
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 5)
	n := r.addNode(1, ProtoStatic)
	log := logData(r.bs)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n.Start()
	})
	r.k.RunUntil(sim.Second)
	if !n.Joined() {
		t.Fatal("node did not join")
	}
	slot := n.t0 + n.slotStart(n.slot)
	for slot < r.k.Now()+2*sim.Millisecond {
		slot += n.cycle
	}
	p := n.cfg.Profile.Radio
	clockInEnd := slot - sim.Millisecond + n.cfg.Profile.MCU.WakeupLatency + p.TxClockIn(p.AddressBytes+18)
	if clockInEnd <= slot {
		t.Fatalf("clock-in ends at %v, before the %v slot: the test needs a longer frame", clockInEnd, slot)
	}
	r.k.ScheduleAt(slot-sim.Millisecond, func(*sim.Kernel) {
		if !n.Send(make([]byte, 18)) {
			t.Error("Send refused")
		}
	})
	var atSlot, afterClockIn radio.Mode
	var loadedAtSlot bool
	r.k.ScheduleAt(slot+1, func(*sim.Kernel) {
		atSlot, loadedAtSlot = n.radio.Mode(), n.radio.Loaded()
	})
	r.k.ScheduleAt(clockInEnd+1, func(*sim.Kernel) { afterClockIn = n.radio.Mode() })
	r.k.RunUntil(slot + 2*n.cycle)
	if atSlot != radio.ModeStandby || loadedAtSlot {
		t.Fatalf("at the slot: mode %v, loaded %v; want standby mid clock-in", atSlot, loadedAtSlot)
	}
	if afterClockIn != radio.ModeOff {
		t.Fatalf("mode %v once the clock-in ended, want off", afterClockIn)
	}
	if len(*log) != 1 {
		t.Fatalf("%d frames received, want 1", len(*log))
	}
	if at := (*log)[0].At; at < slot+n.cycle || at > slot+n.cycle+n.slotDuration() {
		t.Fatalf("frame received at %v, want in the next cycle's slot at %v", at, slot+n.cycle)
	}
}
