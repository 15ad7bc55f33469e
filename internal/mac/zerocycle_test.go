package mac

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// deliverZeroCycleBeacon hands node n a well-formed beacon whose cycle
// field is zero, as a bit-error-corrupted beacon that still passes the
// CRC would arrive.
func deliverZeroCycleBeacon(t *testing.T, n NodeMAC) {
	t.Helper()
	f := packet.Frame{
		Dest:    packet.DefaultPlan().Beacon,
		Payload: packet.Beacon{Seq: 9}.AppendMarshal(nil),
	}
	switch m := n.(type) {
	case *NodeMac:
		m.onFrame(f)
	case *CSMANode:
		m.onFrame(f)
	default:
		t.Fatalf("no beacon path on %T", n)
	}
}

// windowOpen reports whether a beaconed node is listening in a beacon
// window.
func windowOpen(n NodeMAC) bool {
	switch m := n.(type) {
	case *NodeMac:
		return m.window.open
	case *CSMANode:
		return m.window.open
	}
	return false
}

// TestZeroCycleBeaconIgnored checks that a beacon advertising a zero
// cycle is dropped before it touches the radio, the window or any
// counter. Handling it used to power the receiver down and cancel the
// window with nothing left armed, so a searching node stayed deaf for
// good and a joined node kept "holding" its slot without hearing
// another beacon.
func TestZeroCycleBeaconIgnored(t *testing.T) {
	for _, proto := range []Protocol{ProtoStatic, ProtoCSMA} {
		t.Run(string(proto)+"/searching", func(t *testing.T) {
			r := newProtoRig(t, proto, Params{}, 30*sim.Millisecond, 41)
			n := r.addNode(1, proto, Params{})
			r.k.Schedule(0, func(*sim.Kernel) {
				r.bs.Start()
				n.Start()
			})
			r.k.Schedule(5*sim.Millisecond, func(*sim.Kernel) {
				deliverZeroCycleBeacon(t, n)
				if heard := n.Stats().BeaconsHeard; heard != 0 {
					t.Errorf("zero-cycle beacon counted as heard (%d)", heard)
				}
			})
			r.k.RunUntil(2 * sim.Second)
			if !n.Joined() {
				t.Fatalf("searching node never joined after a zero-cycle beacon: %+v", n.Stats())
			}
		})
		t.Run(string(proto)+"/in-window", func(t *testing.T) {
			r := newProtoRig(t, proto, Params{}, 30*sim.Millisecond, 42)
			n := r.addNode(1, proto, Params{})
			r.k.Schedule(0, func(*sim.Kernel) {
				r.bs.Start()
				n.Start()
			})
			var before Stats
			injected := sim.Time(0)
			poll := sim.NewTimer(r.k, func(k *sim.Kernel) {
				if injected > 0 || !n.Joined() || !windowOpen(n) {
					return
				}
				before = n.Stats()
				deliverZeroCycleBeacon(t, n)
				if !windowOpen(n) || n.Stats() != before {
					t.Errorf("zero-cycle beacon closed the window or moved a counter")
				}
				injected = k.Now()
			})
			r.k.Schedule(sim.Second, func(*sim.Kernel) { poll.StartPeriodic(100 * sim.Microsecond) })
			r.k.RunUntil(4 * sim.Second)
			if injected == 0 {
				t.Fatal("no beacon window opened after the join")
			}
			// ~100 beacons fly in the 3 s after the injection.
			if heard := n.Stats().BeaconsHeard - before.BeaconsHeard; heard < 80 {
				t.Fatalf("node heard %d beacons in the 3 s after a zero-cycle beacon", heard)
			}
			if !n.Joined() {
				t.Fatal("node lost its slot")
			}
		})
	}
}
