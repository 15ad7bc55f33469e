package mac

import (
	"encoding/binary"
	"testing"

	"repro/internal/sim"
)

// TestSendCopiesPayload fills the TDMA node's queue from one reused
// caller buffer, as the applications do, and checks that the base
// station receives exactly the accepted payloads, in order: no frame
// aliases the caller's buffer or another queued frame's.
func TestSendCopiesPayload(t *testing.T) {
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 5)
	n := r.addNode(1, ProtoStatic)
	log := logData(r.bs)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n.Start()
	})
	buf := make([]byte, 18)
	var seq uint16
	var accepted []uint16
	send := func(*sim.Kernel) {
		for i := 0; i < 2; i++ { // twice the slot rate: the queue fills
			seq++
			binary.BigEndian.PutUint16(buf, seq)
			if n.Send(buf) {
				accepted = append(accepted, seq)
			}
		}
	}
	n.OnJoined(func() { sim.NewTimer(r.k, send).StartPeriodic(30 * sim.Millisecond) })
	r.k.RunUntil(2 * sim.Second)

	recs := *log
	if len(recs) < 40 {
		t.Fatalf("only %d frames received", len(recs))
	}
	for i, rec := range recs {
		if got := binary.BigEndian.Uint16(rec.Payload); got != accepted[i] {
			t.Fatalf("frame %d carries sequence %d, want %d: payloads aliased", i, got, accepted[i])
		}
	}
	if n.Stats().QueueDrops == 0 {
		t.Fatal("queue never filled; the test did not exercise queued frames")
	}
}
