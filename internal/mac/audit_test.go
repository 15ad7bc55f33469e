package mac

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestAuditFrameStatsLaws exercises the pure frame-conservation checker
// over hand-built counter snapshots: balanced books (including the
// epoch-straddle carry and a pending ack) audit clean, and each cooked
// imbalance is named.
func TestAuditFrameStatsLaws(t *testing.T) {
	balanced := Stats{DataSent: 10, DataAcked: 7, AckMissed: 3, Retries: 2, DataDropped: 1}
	if v := AuditFrameStats(balanced, 0, false); len(v) != 0 {
		t.Fatalf("balanced books flagged: %v", v)
	}
	// A frame sent before the accounting reset, acked after it: the ack
	// shows in this epoch, the send in the previous one — carry covers it.
	straddle := Stats{DataAcked: 1}
	if v := AuditFrameStats(straddle, 1, false); len(v) != 0 {
		t.Fatalf("epoch-straddle ack flagged: %v", v)
	}
	if v := AuditFrameStats(straddle, 0, false); len(v) != 1 {
		t.Fatalf("uncarried straddle not flagged: %v", v)
	}
	// One frame in the air awaiting its ack.
	pending := Stats{DataSent: 1}
	if v := AuditFrameStats(pending, 0, true); len(v) != 0 {
		t.Fatalf("pending ack flagged: %v", v)
	}
	// A missed ack that became neither retry nor drop breaks the first law.
	leak := Stats{DataSent: 2, DataAcked: 1, AckMissed: 1}
	v := AuditFrameStats(leak, 0, false)
	if len(v) != 1 || !strings.Contains(v[0], "AckMissed") {
		t.Fatalf("retry-ledger leak not flagged: %v", v)
	}
	// A lost transmission breaks the second law.
	lost := Stats{DataSent: 3, DataAcked: 1, AckMissed: 1, Retries: 1}
	v = AuditFrameStats(lost, 0, false)
	if len(v) != 1 || !strings.Contains(v[0], "DataSent") {
		t.Fatalf("lost transmission not flagged: %v", v)
	}
}

// TestAuditSlotTrip joins a node, checks its grant-window audit is
// clean, then cooks the slot index past the cycle — the deliberate
// violation the audit must catch.
func TestAuditSlotTrip(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 21)
	n1 := r.addNode(1, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	r.k.RunUntil(2 * sim.Second)
	if !n1.Joined() {
		t.Fatal("node failed to join")
	}
	if v := n1.AuditProtocol(); len(v) != 0 {
		t.Fatalf("joined node's slot audit fired: %v", v)
	}
	if v := n1.AuditFrame(); len(v) != 0 {
		t.Fatalf("joined node's frame audit fired: %v", v)
	}

	saved := n1.slot
	n1.slot = 40 // far past any cycle the node has heard
	v := n1.AuditProtocol()
	if len(v) == 0 {
		t.Fatal("out-of-cycle slot not detected")
	}
	if !strings.Contains(v[0], "past the") {
		t.Fatalf("slot-overrun detail missing: %v", v)
	}
	n1.slot = saved
	if v := n1.AuditProtocol(); len(v) != 0 {
		t.Fatalf("restored slot still flagged: %v", v)
	}
}

// TestAuditSlotTableTrip joins two nodes, checks the base-station table
// audits clean, then corrupts it one case at a time: the table's own
// laws (a double grant, out-of-step maps) and the base station's
// (a dynamic slot outside the dense range, a stale or out-of-range
// grant). Each case must be named and the restored table audit clean.
func TestAuditSlotTableTrip(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 22)
	n1 := r.addNode(1, ProtoDynamic)
	n2 := r.addNode(2, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	r.k.Schedule(300*sim.Millisecond, func(*sim.Kernel) { n2.Start() })
	r.k.RunUntil(3 * sim.Second)
	if !n1.Joined() || !n2.Joined() {
		t.Fatal("nodes failed to join")
	}
	if v := r.bs.AuditTable(); len(v) != 0 {
		t.Fatalf("consistent table flagged: %v", v)
	}
	bs := r.bs
	cases := []struct {
		name    string
		corrupt func() (restore func())
		// want lists the expected details exactly; ok, when set, checks
		// the joined report instead. With neither, any report passes.
		want []string
		ok   func(detail string) bool
	}{
		{
			name: "double grant", // both nodes pointed at the same slot index
			corrupt: func() func() {
				saved := bs.byNode[2]
				bs.byNode[2] = bs.byNode[1]
				return func() { bs.byNode[2] = saved }
			},
			ok: func(d string) bool {
				return strings.Contains(d, "slot map names") || strings.Contains(d, "points at")
			},
		},
		{
			name: "out-of-step maps", // a slot entry with no node-map partner
			corrupt: func() func() {
				bs.byIndex[7] = 9
				return func() { delete(bs.byIndex, 7) }
			},
		},
		{
			name: "dynamic slot outside the dense range",
			corrupt: func() func() {
				bs.byIndex[7], bs.byNode[9] = 9, 7
				return func() { delete(bs.byIndex, 7); delete(bs.byNode, 9) }
			},
			want: []string{"dynamic slot 7 outside the dense range 0..2"},
		},
		{
			name: "stale grant", // advertised to a node the table does not hold
			corrupt: func() func() {
				bs.grants = append(bs.grants, grant{entry: packet.SlotEntry{NodeID: 9, Slot: 1}})
				return func() { bs.grants = bs.grants[:len(bs.grants)-1] }
			},
			want: []string{"grant advertises slot 1 for node 9 but the table says 0"},
		},
		{
			name: "out-of-range grant",
			corrupt: func() func() {
				bs.grants = append(bs.grants, grant{entry: packet.SlotEntry{NodeID: 2, Slot: 200}})
				return func() { bs.grants = bs.grants[:len(bs.grants)-1] }
			},
			want: []string{
				"grant advertises out-of-range slot 200 for node 2",
				"grant advertises slot 200 for node 2 but the table says 1",
			},
		},
	}
	for _, tc := range cases {
		restore := tc.corrupt()
		v := bs.AuditTable()
		switch {
		case len(v) == 0:
			t.Errorf("%s not detected", tc.name)
		case tc.want != nil && strings.Join(v, "; ") != strings.Join(tc.want, "; "):
			t.Errorf("%s: got %q, want %q", tc.name, v, tc.want)
		case tc.ok != nil && !tc.ok(strings.Join(v, "; ")):
			t.Errorf("%s: detail missing: %v", tc.name, v)
		}
		restore()
		if v := bs.AuditTable(); len(v) != 0 {
			t.Fatalf("table still flagged after restoring %s: %v", tc.name, v)
		}
	}

	// A pending compaction suspends the dense-range law: a voluntary
	// release leaves a hole until the next beacon build renumbers.
	bs.byIndex[7], bs.byNode[9] = 9, 7
	bs.needCompact = true
	if v := bs.AuditTable(); len(v) != 0 {
		t.Fatalf("dense-range law fired with a compaction pending: %v", v)
	}
}

// TestResetAccountingCarriesPendingAck checks the epoch-straddle credit:
// a reset taken while an ack window is open leaves the books balanced
// even though the send landed in the previous epoch.
func TestResetAccountingCarriesPendingAck(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 23)
	n1 := r.addNode(1, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(20 * sim.Millisecond)
	})
	// Poll at a fine grain and reset the accounting the moment an ack
	// window is open — the worst instant for the books — then check the
	// law holds at every later poll.
	sawCarry := false
	poll := sim.NewTimer(r.k, func(*sim.Kernel) {
		if !sawCarry && n1.ack.open && n1.Joined() {
			n1.ResetAccounting()
			if n1.carrySent != 1 {
				t.Fatal("reset inside an open ack window did not carry the send")
			}
			sawCarry = true
			return
		}
		if v := n1.AuditFrame(); len(v) != 0 {
			t.Fatalf("frame law broken at %v: %v", r.k.Now(), v)
		}
	})
	r.k.Schedule(sim.Second, func(*sim.Kernel) {
		poll.StartPeriodic(100 * sim.Microsecond)
	})
	r.k.RunUntil(4 * sim.Second)
	if !sawCarry {
		t.Fatal("no reset landed inside an open ack window; widen the sweep")
	}
	if v := n1.AuditFrame(); len(v) != 0 {
		t.Fatalf("frame law broken at end of run: %v", v)
	}
}
