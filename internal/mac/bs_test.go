package mac

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// openLPLWake starts an LPL base station and, at its first probe,
// delivers a strobe from node so the early ack opens a payload window.
// It runs the kernel until the window is open and returns the receiver.
func openLPLWake(t *testing.T, r *protoRig, node uint8) *LPLBS {
	t.Helper()
	bs := r.bs.(*LPLBS)
	r.k.Schedule(0, func(*sim.Kernel) { bs.Start() })
	r.k.Schedule(DefaultLPLCheckInterval+100*sim.Microsecond, func(*sim.Kernel) {
		bs.onFrame(packet.Frame{
			Dest:    packet.DefaultPlan().BSCtrl,
			Payload: packet.Strobe{NodeID: node}.AppendMarshal(nil),
		})
	})
	r.k.RunUntil(DefaultLPLCheckInterval + 5*sim.Millisecond)
	if !bs.waking || !bs.payload.open {
		t.Fatal("the early ack did not open a payload window")
	}
	return bs
}

// TestLPLDroppedSlotAssignEndsWake checks that an SSR whose slot-assign
// task the full TinyOS queue drops ends the wake like a rejected SSR.
// Left open, the wake would never close: every later probe would return
// early and the receiver would stay on.
func TestLPLDroppedSlotAssignEndsWake(t *testing.T) {
	r := newProtoRig(t, ProtoLPL, Params{}, 0, 51)
	bs := openLPLWake(t, r, 1)
	probes := bs.stats.Probes
	r.k.Schedule(0, func(*sim.Kernel) {
		for bs.sched.PostFn("filler", 1000, nil) {
		}
		bs.onFrame(packet.Frame{
			Dest:    packet.DefaultPlan().BSCtrl,
			Payload: packet.SSR{NodeID: 1}.AppendMarshal(nil),
		})
		if bs.waking || bs.payload.open || bs.radio.Mode() == radio.ModeRx {
			t.Errorf("wake still open after the dropped slot-assign post (waking=%v awaiting=%v radio=%v)",
				bs.waking, bs.payload.open, bs.radio.Mode())
		}
	})
	r.k.RunUntil(r.k.Now() + 1900*sim.Millisecond)
	if got := bs.stats.Probes - probes; got < 15 {
		t.Fatalf("%d probes in the 1.9 s after the dropped post, want ≥15", got)
	}
	if bs.stats.SSRReceived != 1 || len(bs.byNode) != 0 {
		t.Fatalf("SSRReceived=%d members=%d, want 1 and 0", bs.stats.SSRReceived, len(bs.byNode))
	}
}

// TestSenderIDAttribution delivers data frames to both contention base
// stations (LPL inside an open wake). A header-only payload and a
// non-member's frame each count one stray frame, owe no ack and are
// never forwarded; a member's frame counts as received, owes one ack and
// is forwarded without its header.
func TestSenderIDAttribution(t *testing.T) {
	data := func(payload ...byte) packet.Frame {
		return packet.Frame{Dest: packet.DefaultPlan().BSData, Payload: payload}
	}
	cases := []struct {
		name  string
		frame packet.Frame
		stray bool
	}{
		{"header-only", data(2), true},
		{"non-member", data(9, 0xaa, 0xbb), true},
		{"member", data(2, 0xaa, 0xbb), false},
	}
	for _, proto := range []Protocol{ProtoCSMA, ProtoLPL} {
		for _, tc := range cases {
			t.Run(string(proto)+"/"+tc.name, func(t *testing.T) {
				r := newProtoRig(t, proto, Params{}, 30*sim.Millisecond, 61)
				var deliver func(packet.Frame)
				var owed func() int
				switch bs := r.bs.(type) {
				case *BS:
					r.k.Schedule(0, func(*sim.Kernel) { bs.Start() })
					r.k.RunUntil(5 * sim.Millisecond)
					bs.admit(2)
					deliver, owed = bs.onFrame, bs.acks.Len
				case *LPLBS:
					openLPLWake(t, r, 2)
					bs.admit(2)
					deliver, owed = bs.onFrame, bs.acks.Len
				default:
					t.Fatalf("base station is %T", r.bs)
				}
				rx := logData(r.bs)
				r.k.Schedule(0, func(*sim.Kernel) {
					before := r.bs.Stats()
					deliver(tc.frame)
					after := r.bs.Stats()
					stray := after.StrayFrames - before.StrayFrames
					got := after.DataReceived - before.DataReceived
					if tc.stray {
						if stray != 1 || got != 0 || owed() != 0 {
							t.Errorf("stray frame: StrayFrames +%d, %d received, %d acks owed; want +1, 0, 0",
								stray, got, owed())
						}
						return
					}
					if stray != 0 || got != 1 || owed() != 1 {
						t.Fatalf("member frame: StrayFrames +%d, %d received, %d acks owed; want +0, 1, 1",
							stray, got, owed())
					}
				})
				r.k.RunUntil(r.k.Now() + 5*sim.Millisecond)
				if tc.stray {
					if len(*rx) != 0 {
						t.Errorf("stray frame forwarded: %+v", *rx)
					}
					return
				}
				if len(*rx) != 1 || (*rx)[0].Node != 2 || string((*rx)[0].Payload) != "\xaa\xbb" {
					t.Errorf("forwarded %+v, want one frame from node 2 with the payload past the header", *rx)
				}
			})
		}
	}
}
