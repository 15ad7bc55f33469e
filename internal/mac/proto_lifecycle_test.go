package mac

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestProtocolSet checks the closed protocol set: Protocols lists it
// sorted and without duplicates, Lookup resolves every entry and nothing
// else, and NewNode/NewBaseMAC build every entry.
func TestProtocolSet(t *testing.T) {
	got := Protocols()
	if len(got) != 4 {
		t.Fatalf("Protocols() = %v, want the four protocols", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Protocols() = %v is not sorted and unique", got)
		}
	}
	if _, ok := Lookup("aloha"); ok {
		t.Fatalf("Lookup accepted an unknown protocol")
	}
	for _, p := range got {
		d, ok := Lookup(p)
		if !ok || d.Name != p || d.Validate == nil {
			t.Fatalf("descriptor for %q incomplete: %+v", p, d)
		}
		if err := d.Validate(Params{}); err != nil {
			t.Fatalf("%q rejects the zero Params: %v", p, err)
		}
		r := newProtoRig(t, p, Params{}, 30*sim.Millisecond, 1)
		if r.bs == nil || r.addNode(1, p, Params{}) == nil {
			t.Fatalf("%q: NewBaseMAC/NewNode built nothing", p)
		}
	}
	if Static.Protocol() != ProtoStatic || Dynamic.Protocol() != ProtoDynamic {
		t.Fatalf("Variant.Protocol mapping broken")
	}
}

func TestNewNodeUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewNode did not panic on an unknown protocol")
		}
	}()
	NewNode(nil, NodeConfig{Protocol: "aloha"}, nil, nil, nil, nil)
}

func TestNewBaseMACUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewBaseMAC did not panic on an unknown protocol")
		}
	}()
	NewBaseMAC(nil, BSConfig{Protocol: "aloha"}, nil, nil, nil, nil)
}

func TestParamValidators(t *testing.T) {
	cases := []struct {
		proto Protocol
		p     Params
		ok    bool
	}{
		{ProtoStatic, Params{}, true},
		{ProtoStatic, Params{MinBE: 1}, false},
		{ProtoDynamic, Params{CheckInterval: sim.Millisecond}, false},
		{ProtoCSMA, Params{MinBE: 2, MaxBE: 6, MaxBackoffs: 5}, true},
		{ProtoCSMA, Params{MinBE: -1}, false},
		{ProtoCSMA, Params{MinBE: 9}, false},
		{ProtoCSMA, Params{MaxBE: 9}, false},
		{ProtoCSMA, Params{MinBE: 6, MaxBE: 4}, false},
		{ProtoCSMA, Params{MinBE: 6}, false}, // above the default MaxBE of 5
		{ProtoCSMA, Params{MaxBackoffs: 11}, false},
		{ProtoCSMA, Params{CheckInterval: sim.Millisecond}, false},
		{ProtoLPL, Params{CheckInterval: 50 * sim.Millisecond}, true},
		{ProtoLPL, Params{CheckInterval: -sim.Millisecond}, false},
		{ProtoLPL, Params{CheckInterval: 2 * sim.Second}, false},
		{ProtoLPL, Params{MaxBE: 5}, false},
		{ProtoLPL, Params{CheckInterval: sim.Nanosecond}, false},
		{ProtoLPL, Params{CheckInterval: 2 * sim.Millisecond}, false}, // shorter than a probe
		{ProtoLPL, Params{CheckInterval: 3 * sim.Millisecond}, true},
	}
	for i, c := range cases {
		d, _ := Lookup(c.proto)
		err := d.Validate(c.p)
		if (err == nil) != c.ok {
			t.Errorf("case %d: %s.Validate(%+v) = %v, want ok=%v", i, c.proto, c.p, err, c.ok)
		}
	}
}

// TestCSMACrashRebootPark walks a CSMA node through the full lifecycle:
// join, steady traffic, crash (all state forgotten, generation bumped),
// reboot and rejoin, duty-cycle stretch, then the beacon-only park that
// releases the membership back to the base station.
func TestCSMACrashRebootPark(t *testing.T) {
	r := newProtoRig(t, ProtoCSMA, Params{}, 30*sim.Millisecond, 5)
	n1 := r.addNode(1, ProtoCSMA, Params{})
	n2 := r.addNode(2, ProtoCSMA, Params{})
	var rx int
	r.bs.OnData(func(RxRecord) { rx++ })
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
		n2.Start()
	})
	for _, n := range []NodeMAC{n1, n2} {
		n := n
		n.OnJoined(func() {
			tm := sim.NewTimer(r.k, func(*sim.Kernel) { n.Send(make([]byte, 18)) })
			tm.StartPeriodic(40 * sim.Millisecond)
		})
	}
	r.k.RunUntil(1 * sim.Second)
	if !n1.Joined() || !n2.Joined() {
		t.Fatalf("nodes not joined")
	}
	if n1.Slot() < 0 {
		t.Fatalf("joined node reports membership index %d", n1.Slot())
	}
	if rx == 0 {
		t.Fatalf("OnData callback never fired")
	}
	if n1.ControlRxTime() <= 0 || n1.ControlTxTime() <= 0 || n1.JoinIdleTime() <= 0 {
		t.Fatalf("control-time accounting empty: rx=%v tx=%v join=%v",
			n1.ControlRxTime(), n1.ControlTxTime(), n1.JoinIdleTime())
	}
	if n1.JoinedTime() <= 0 {
		t.Fatalf("JoinedTime = %v after a joined second", n1.JoinedTime())
	}

	gen := n1.Generation()
	r.k.Schedule(0, func(*sim.Kernel) { r.crash(0) })
	r.k.RunUntil(1200 * sim.Millisecond)
	if n1.Joined() {
		t.Fatalf("crashed node still joined")
	}
	if n1.Generation() != gen+1 {
		t.Fatalf("generation %d after crash, want %d", n1.Generation(), gen+1)
	}
	r.auditAll("post-crash")

	r.k.Schedule(0, func(*sim.Kernel) { r.reboot(0) })
	r.k.RunUntil(2 * sim.Second)
	if !n1.Joined() {
		t.Fatalf("rebooted node did not rejoin")
	}

	// ResetAccounting opens a fresh measurement window mid-run.
	r.k.Schedule(0, func(*sim.Kernel) {
		n1.ResetAccounting()
		r.bs.ResetAccounting()
	})
	rxBefore := rx
	r.k.RunUntil(2100 * sim.Millisecond)
	if rx == rxBefore || r.bs.Stats().DataReceived == 0 {
		t.Fatalf("BS received nothing after ResetAccounting")
	}

	// Duty-cycle stretch skips every other contention opportunity; a
	// factor below 2 disables it.
	r.k.Schedule(0, func(*sim.Kernel) {
		n1.SetSlotStretch(1)
		n1.SetSlotStretch(2)
	})
	r.k.RunUntil(3 * sim.Second)
	if n1.Stats().SlotsSkipped == 0 {
		t.Fatalf("stretch engaged but no opportunity was skipped")
	}

	// Beacon-only park: the node releases its membership and goes quiet.
	r.k.Schedule(0, func(*sim.Kernel) { n1.EnterBeaconOnly() })
	r.k.RunUntil(4 * sim.Second)
	if n1.Joined() {
		t.Fatalf("parked node still joined")
	}
	if n1.Stats().ReleasesSent == 0 {
		t.Fatalf("park did not send a release")
	}
	for _, id := range r.bs.Nodes() {
		if id == 1 {
			t.Fatalf("BS still lists the parked node: %v", r.bs.Nodes())
		}
	}
	r.auditAll("parked")
}

// TestCSMALossyChannelRecovery runs CSMA over a bursty-error link and a
// beacon blackout: ack misses must become retries or drops under the
// conservation law, and a node deaf through five beacon windows must
// rejoin on its own.
func TestCSMALossyChannelRecovery(t *testing.T) {
	r := newProtoRig(t, ProtoCSMA, Params{MinBE: 2, MaxBE: 4, MaxBackoffs: 3}, 30*sim.Millisecond, 9)
	n1 := r.addNode(1, ProtoCSMA, Params{MinBE: 2, MaxBE: 4, MaxBackoffs: 3})
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(35 * sim.Millisecond)
	})
	r.k.RunUntil(500 * sim.Millisecond)
	if !n1.Joined() {
		t.Fatalf("node did not join")
	}

	// Outbound blackout: beacons still arrive, so the node keeps
	// contending, but its data never reaches the base station — each
	// frame walks the full retry ladder to a drop (MaxRetries misses).
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetBlackout("node1", "bs", true) })
	r.k.RunUntil(800 * sim.Millisecond)
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetBlackout("node1", "bs", false) })
	r.k.RunUntil(1500 * sim.Millisecond)
	st := n1.Stats()
	if st.AckMissed == 0 || st.Retries == 0 || st.DataDropped == 0 {
		t.Fatalf("outbound blackout left no trace: %+v", st)
	}
	r.auditAll("after outbound blackout")

	// Now silence the beacons: five consecutive missed windows force a
	// rejoin, which completes once the link returns.
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetBlackout("bs", "node1", true) })
	r.k.RunUntil(1800 * sim.Millisecond)
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetBlackout("bs", "node1", false) })
	r.k.RunUntil(2800 * sim.Millisecond)
	st = n1.Stats()
	if st.BeaconsMissed == 0 {
		t.Fatalf("no beacon misses through a beacon blackout")
	}
	if st.Rejoins == 0 {
		t.Fatalf("node never rejoined after losing the beacon train")
	}
	if !n1.Joined() {
		t.Fatalf("node not joined after the link recovered")
	}
	r.auditAll("after rejoin")
}

// TestLPLCrashRebootPark walks an LPL node through crash, reboot,
// stretch and the silent park, and checks the base station's
// silence-based reclamation retires the parked membership.
func TestLPLCrashRebootPark(t *testing.T) {
	r := newProtoRig(t, ProtoLPL, Params{}, 0, 13)
	if bs, ok := r.bs.(*LPLBS); ok {
		bs.cfg.ReclaimAfter = 5
	} else {
		t.Fatalf("BS is %T, want *LPLBS", r.bs)
	}
	n1 := r.addNode(1, ProtoLPL, Params{})
	var rx int
	r.bs.OnData(func(RxRecord) { rx++ })
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(200 * sim.Millisecond)
	})
	r.k.RunUntil(2 * sim.Second)
	if !n1.Joined() {
		t.Fatalf("node did not join")
	}
	if n1.Slot() != -1 {
		t.Fatalf("LPL reports slot %d, want -1", n1.Slot())
	}
	if n1.CycleLength() != DefaultLPLCheckInterval {
		t.Fatalf("cycle %v", n1.CycleLength())
	}
	if rx == 0 {
		t.Fatalf("OnData never fired")
	}
	if n1.ControlRxTime() <= 0 || n1.ControlTxTime() <= 0 {
		t.Fatalf("control accounting empty: rx=%v tx=%v", n1.ControlRxTime(), n1.ControlTxTime())
	}
	if n1.JoinedTime() <= 0 {
		t.Fatalf("JoinedTime empty")
	}

	gen := n1.Generation()
	r.k.Schedule(0, func(*sim.Kernel) { r.crash(0) })
	r.k.RunUntil(2300 * sim.Millisecond)
	if n1.Joined() || n1.Generation() != gen+1 {
		t.Fatalf("crash did not take: joined=%v gen=%d", n1.Joined(), n1.Generation())
	}
	r.auditAll("post-crash")

	r.k.Schedule(0, func(*sim.Kernel) { r.reboot(0) })
	r.k.RunUntil(3500 * sim.Millisecond)
	if !n1.Joined() {
		t.Fatalf("rebooted node did not rejoin")
	}

	r.k.Schedule(0, func(*sim.Kernel) {
		n1.ResetAccounting()
		r.bs.ResetAccounting()
	})
	rxBefore := rx
	r.k.RunUntil(4500 * sim.Millisecond)
	if rx == rxBefore || r.bs.Stats().DataReceived == 0 {
		t.Fatalf("BS received nothing after ResetAccounting")
	}

	r.k.Schedule(0, func(*sim.Kernel) {
		n1.SetSlotStretch(1)
		n1.SetSlotStretch(2)
	})
	r.k.RunUntil(6 * sim.Second)
	if n1.Stats().SlotsSkipped == 0 {
		t.Fatalf("stretch engaged but no opportunity was skipped")
	}

	// Park is radio silence; the BS notices via probe-interval aging and
	// retires the membership.
	r.k.Schedule(0, func(*sim.Kernel) { n1.EnterBeaconOnly() })
	r.k.RunUntil(8 * sim.Second)
	if n1.Joined() {
		t.Fatalf("parked node still joined")
	}
	if n1.Stats().ReleasesSent != 0 {
		t.Fatalf("LPL park transmitted a release in a beaconless protocol")
	}
	if got := r.bs.Nodes(); len(got) != 0 {
		t.Fatalf("BS did not reclaim the silent membership: %v", got)
	}
	if r.bs.Stats().SlotsReclaimed == 0 {
		t.Fatalf("reclaim not counted")
	}
	r.auditAll("parked")
}

// TestLPLLossyChannel drives the LPL retry machinery: a blackout towards
// the base station exhausts strobe budgets, a blackout of the return
// path loses acks, and the books must balance through both.
func TestLPLLossyChannel(t *testing.T) {
	r := newProtoRig(t, ProtoLPL, Params{CheckInterval: 50 * sim.Millisecond}, 0, 17)
	n1 := r.addNode(1, ProtoLPL, Params{CheckInterval: 50 * sim.Millisecond})
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(150 * sim.Millisecond)
	})
	r.k.RunUntil(1 * sim.Second)
	if !n1.Joined() {
		t.Fatalf("node did not join")
	}
	if n1.CycleLength() != 50*sim.Millisecond {
		t.Fatalf("check interval override ignored: %v", n1.CycleLength())
	}

	// Outbound blackout: whole strobe trains go unanswered.
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetBlackout("node1", "bs", true) })
	r.k.RunUntil(1400 * sim.Millisecond)
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetBlackout("node1", "bs", false) })
	r.k.RunUntil(2 * sim.Second)
	if n1.Stats().StrobeFails == 0 {
		t.Fatalf("outbound blackout exhausted no strobe budget: %+v", n1.Stats())
	}
	r.auditAll("after outbound blackout")

	// Return-path blackout: strobes are heard (wake energy is spent) but
	// early acks and data acks never arrive.
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetBlackout("bs", "node1", true) })
	r.k.RunUntil(2400 * sim.Millisecond)
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetBlackout("bs", "node1", false) })
	r.k.RunUntil(3500 * sim.Millisecond)
	st := n1.Stats()
	if st.AckMissed == 0 && st.StrobeFails < 2 {
		t.Fatalf("return blackout left no trace: %+v", st)
	}
	if st.DataAcked == 0 {
		t.Fatalf("no delivery after recovery: %+v", st)
	}
	r.auditAll("after return blackout")
}

// TestLPLJamming corrupts every frame for a window; trains go
// unanswered, then the network heals and delivery resumes.
func TestLPLJamming(t *testing.T) {
	r := newProtoRig(t, ProtoLPL, Params{}, 0, 19)
	n1 := r.addNode(1, ProtoLPL, Params{})
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(300 * sim.Millisecond)
	})
	r.k.RunUntil(1 * sim.Second)
	if !n1.Joined() {
		t.Fatalf("node did not join")
	}
	acked := n1.Stats().DataAcked
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetJamming(true) })
	r.k.RunUntil(1700 * sim.Millisecond)
	r.k.Schedule(0, func(*sim.Kernel) { r.ch.SetJamming(false) })
	r.k.RunUntil(3 * sim.Second)
	st := n1.Stats()
	if st.StrobeFails == 0 && st.AckMissed == 0 {
		t.Fatalf("jam window left no trace: %+v", st)
	}
	if st.DataAcked <= acked {
		t.Fatalf("no delivery after the jam cleared: %+v", st)
	}
	r.auditAll("after jam")
}

// TestLPLNoisyAcks runs LPL over a uniformly noisy return path: strobe
// acks, SSR acks and data acks are each lost at random, so the node
// walks its SSR-retry and data-retry ladders while the frame books
// stay balanced.
func TestLPLNoisyAcks(t *testing.T) {
	r := newProtoRig(t, ProtoLPL, Params{}, 0, 29)
	n1 := r.addNode(1, ProtoLPL, Params{})
	r.ch.SetLink("bs", "node1", channel.Link{Connected: true, BER: 0.01})
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(150 * sim.Millisecond)
	})
	r.k.RunUntil(10 * sim.Second)
	if !n1.Joined() {
		t.Fatalf("node never joined over the noisy link")
	}
	st := n1.Stats()
	if st.AckMissed == 0 || st.Retries == 0 {
		t.Fatalf("no data-ack losses over a noisy return path: %+v", st)
	}
	if st.DataAcked == 0 {
		t.Fatalf("nothing delivered: %+v", st)
	}
	if st.AvgLatency() <= 0 || st.LatencyMax < st.AvgLatency() {
		t.Fatalf("latency aggregate inconsistent: avg=%v max=%v", st.AvgLatency(), st.LatencyMax)
	}
	if r.bs.CycleLength() != DefaultLPLCheckInterval {
		t.Fatalf("bs cycle %v", r.bs.CycleLength())
	}
	if n1.JoinIdleTime() != 0 {
		t.Fatalf("LPL reports %v idle listening; every rx window is bounded", n1.JoinIdleTime())
	}
	r.auditAll("noisy return path")

	// The LPL BS accepts a voluntary release for protocol symmetry even
	// though its own nodes park silently: a non-member release is ignored,
	// a member release retires the entry immediately.
	lbs := r.bs.(*LPLBS)
	before := lbs.Stats().SlotsReleased
	lbs.handleRelease(packet.Release{NodeID: 99})
	if got := lbs.Stats().SlotsReleased; got != before {
		t.Fatalf("non-member release was booked: %d -> %d", before, got)
	}
	lbs.handleRelease(packet.Release{NodeID: 1})
	if got := lbs.Stats().SlotsReleased; got != before+1 {
		t.Fatalf("member release not booked: %d -> %d", before, got)
	}
	for _, id := range lbs.Nodes() {
		if id == 1 {
			t.Fatalf("BS still lists the released node: %v", lbs.Nodes())
		}
	}
}

// TestTDMAViaRegistry drives both TDMA flavours through NewNode and
// NewBaseMAC and the strategy interface — the same construction path
// every other protocol takes — including the protocol-audit entry
// points the TDMA types inherit.
func TestTDMAViaRegistry(t *testing.T) {
	for _, tc := range []struct {
		proto Protocol
		cycle sim.Time
	}{
		{ProtoStatic, 30 * sim.Millisecond},
		{ProtoDynamic, 0},
	} {
		tc := tc
		t.Run(string(tc.proto), func(t *testing.T) {
			r := newProtoRig(t, tc.proto, Params{}, tc.cycle, 31)
			n1 := r.addNode(1, tc.proto, Params{})
			n2 := r.addNode(2, tc.proto, Params{})
			r.k.Schedule(0, func(*sim.Kernel) {
				r.bs.Start()
				n1.Start()
				n2.Start()
			})
			for _, n := range []NodeMAC{n1, n2} {
				n := n
				n.OnJoined(func() {
					tm := sim.NewTimer(r.k, func(*sim.Kernel) { n.Send(make([]byte, 18)) })
					tm.StartPeriodic(40 * sim.Millisecond)
				})
			}
			r.k.RunUntil(2 * sim.Second)
			if !n1.Joined() || !n2.Joined() {
				t.Fatalf("nodes not joined")
			}
			if n1.Generation() != 0 {
				t.Fatalf("generation %d without a crash", n1.Generation())
			}
			st := n1.Stats()
			if st.DataSent == 0 || st.DataAcked == 0 {
				t.Fatalf("no traffic: %+v", st)
			}
			if st.CCAAttempts != 0 || st.StrobesSent != 0 {
				t.Fatalf("TDMA with contention counters: %+v", st)
			}
			if len(r.bs.Nodes()) != 2 {
				t.Fatalf("BS membership %v", r.bs.Nodes())
			}
			if r.bs.CycleLength() <= 0 {
				t.Fatalf("bs cycle %v", r.bs.CycleLength())
			}
			if n1.JoinIdleTime() < 0 {
				t.Fatalf("negative join idle time")
			}
			r.auditAll("tdma steady state")
		})
	}
}

// TestCrashWhileAckPending crashes a node of each unicast protocol at
// the exact instant a data frame is awaiting its acknowledgement: the
// frame must be booked as Abandoned (closing the ack window keeps the
// conservation law exact), and the node must rejoin after reboot.
func TestCrashWhileAckPending(t *testing.T) {
	cases := []struct {
		proto Protocol
		cycle sim.Time
	}{
		{ProtoStatic, 30 * sim.Millisecond},
		{ProtoCSMA, 30 * sim.Millisecond},
		{ProtoLPL, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.proto), func(t *testing.T) {
			r := newProtoRig(t, tc.proto, Params{}, tc.cycle, 17)
			n1 := r.addNode(1, tc.proto, Params{})
			pending := func() bool {
				switch n := n1.(type) {
				case *NodeMac:
					return n.ack.open
				case *CSMANode:
					return n.ack.open
				case *LPLNode:
					return n.ack.open
				}
				return false
			}
			r.k.Schedule(0, func(*sim.Kernel) {
				r.bs.Start()
				n1.Start()
			})
			n1.OnJoined(func() {
				tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
				tm.StartPeriodic(25 * sim.Millisecond)
			})
			crashed := false
			var poll *sim.Timer
			poll = sim.NewTimer(r.k, func(*sim.Kernel) {
				if crashed || !pending() {
					return
				}
				crashed = true
				poll.Stop()
				r.crash(0)
			})
			poll.StartPeriodic(100 * sim.Microsecond)
			r.k.RunUntil(3 * sim.Second)
			if !crashed {
				t.Fatalf("ack window was never observed open")
			}
			if n1.Stats().Abandoned == 0 {
				t.Fatalf("crash mid-ack left no abandoned frame: %+v", n1.Stats())
			}
			r.auditAll("crashed mid-ack")
			r.k.Schedule(0, func(*sim.Kernel) { r.reboot(0) })
			r.k.RunUntil(6 * sim.Second)
			if !n1.Joined() {
				t.Fatalf("node did not rejoin after the mid-ack crash")
			}
			r.auditAll("rejoined")
		})
	}
}
