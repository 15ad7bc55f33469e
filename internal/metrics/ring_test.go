package metrics

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestNoRingCountsWithoutRetaining checks the ring-off recorder: every
// recording path bumps the exact counters and Recorded, nothing is
// retained, nothing counts as dropped.
func TestNoRingCountsWithoutRetaining(t *testing.T) {
	r := NewRecorder(NoRing)
	r.Record(1, "bs", KindBeaconTx, "seq=0")
	node1, bs := r.ID("node1"), r.ID("bs")
	Record1(r, 2, node1, KindSSRTx, "nonce=%d", 7)
	Record1(r, 3, node1, KindSlotStart, "slot=%d", 2)
	Record2(r, 4, bs, KindDataRx, "node=%d len=%d", 1, 18)
	Record3(r, 5, bs, KindBeaconTx, "seq=%d cycle=%v nodes=%d", 1, 30*sim.Millisecond, 5)
	if n := len(r.Events()); n != 0 {
		t.Fatalf("ring off retained %d events", n)
	}
	if r.Dropped() != 0 || r.Recorded() != 5 {
		t.Fatalf("dropped %d, recorded %d; want 0 and 5", r.Dropped(), r.Recorded())
	}
	if counter(r, "bs", KindBeaconTx) != 2 || r.Count(KindSlotStart) != 1 {
		t.Fatalf("counters off: beacon-tx %d, slot-start %d", counter(r, "bs", KindBeaconTx), r.Count(KindSlotStart))
	}
	if out := r.Render(); out != "" {
		t.Fatalf("ring-off render = %q, want empty", out)
	}
}

// TestRecordNFormatsLikeSprintf pins the deferred-detail recorders to
// Record with an fmt.Sprintf detail, and checks they skip events a full
// ring drops.
func TestRecordNFormatsLikeSprintf(t *testing.T) {
	want := NewRecorder(0)
	got := NewRecorder(0)
	want.Record(1, "n", KindSlotStart, fmt.Sprintf("slot=%d", 3))
	n, bs := got.ID("n"), got.ID("bs")
	Record1(got, 1, n, KindSlotStart, "slot=%d", 3)
	want.Record(2, "n", KindBeaconRx, fmt.Sprintf("seq=%d cycle=%v", uint16(9), 30*sim.Millisecond))
	Record2(got, 2, n, KindBeaconRx, "seq=%d cycle=%v", uint16(9), 30*sim.Millisecond)
	want.Record(3, "bs", KindBeaconTx, fmt.Sprintf("seq=%d cycle=%v nodes=%d", 1, 60*sim.Millisecond, 4))
	Record3(got, 3, bs, KindBeaconTx, "seq=%d cycle=%v nodes=%d", 1, 60*sim.Millisecond, 4)
	if len(got.Events()) != len(want.Events()) {
		t.Fatalf("%d events, want %d", len(got.Events()), len(want.Events()))
	}
	for i, e := range want.Events() {
		if got.Events()[i] != e {
			t.Fatalf("event %d = %+v, want %+v", i, got.Events()[i], e)
		}
	}

	full := NewRecorder(1)
	Record1(full, 1, full.ID("n"), KindSlotStart, "slot=%d", 1)
	Record2(full, 2, full.ID("n"), KindDataRx, "node=%d len=%d", 1, 18)
	if full.Dropped() != 1 || full.Recorded() != 2 || len(full.Events()) != 1 {
		t.Fatalf("full ring: dropped %d, recorded %d, kept %d; want 1, 2, 1",
			full.Dropped(), full.Recorded(), len(full.Events()))
	}
	var none *Recorder
	Record3(none, 1, none.ID("n"), KindSlotStart, "%d %d %d", 1, 2, 3) // nil recorder is a no-op
}
