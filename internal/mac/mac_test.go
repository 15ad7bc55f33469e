package mac

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// rig assembles a BS plus sensor nodes over one shared medium.
type rig struct {
	t      *testing.T
	k      *sim.Kernel
	ch     *channel.Channel
	tracer *metrics.Recorder
	bs     *BS
	nodes  []*NodeMac
}

func newRig(t *testing.T, proto Protocol, staticCycle sim.Time, seed int64) *rig {
	t.Helper()
	k := sim.NewKernel(seed)
	r := &rig{t: t, k: k, ch: channel.New(k), tracer: metrics.NewRecorder(0)}

	bsProf := platform.BaseStation()
	bsLedger := energy.NewLedger()
	bsMCU := mcu.New(k, bsProf.MCU, bsLedger)
	bsSched := tinyos.NewSched(k, bsMCU, 0)
	bsRadio := radio.New(k, "bs", bsProf.Radio, r.ch, bsSched, bsLedger, r.tracer)
	r.bs = NewBS(k, BSConfig{
		Protocol:    proto,
		Profile:     &bsProf,
		StaticCycle: staticCycle,
	}, bsSched, bsRadio, bsLedger, r.tracer)
	return r
}

// logData registers an OnData hook on bs that keeps a copy of every
// forwarded frame, payload included, in forwarding order.
func logData(bs BSMAC) *[]RxRecord {
	var recs []RxRecord
	bs.OnData(func(rec RxRecord) {
		rec.Payload = append([]byte(nil), rec.Payload...)
		recs = append(recs, rec)
	})
	return &recs
}

func (r *rig) addNode(id uint8, proto Protocol) *NodeMac {
	r.t.Helper()
	prof := platform.IMEC()
	ledger := energy.NewLedger()
	m := mcu.New(r.k, prof.MCU, ledger)
	sched := tinyos.NewSched(r.k, m, 0)
	name := "node" + string(rune('0'+id))
	rad := radio.New(r.k, name, prof.Radio, r.ch, sched, ledger, r.tracer)
	nm := NewNodeMac(r.k, NodeConfig{
		Protocol: proto,
		NodeID:   id,
		Profile:  &prof,
	}, sched, rad, ledger, r.tracer)
	r.nodes = append(r.nodes, nm)
	return nm
}

func TestStaticJoinAndSteadyState(t *testing.T) {
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 1)
	n1 := r.addNode(1, ProtoStatic)
	n2 := r.addNode(2, ProtoStatic)
	recs := logData(r.bs)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
		n2.Start()
	})
	// Stream one payload per cycle from each joined node.
	for _, n := range []*NodeMac{n1, n2} {
		n := n
		n.OnJoined(func() {
			tm := sim.NewTimer(r.k, func(*sim.Kernel) { n.Send(make([]byte, 18)) })
			tm.StartPeriodic(30 * sim.Millisecond)
		})
	}
	r.k.RunUntil(2 * sim.Second)

	if !n1.Joined() || !n2.Joined() {
		t.Fatalf("nodes not joined: n1=%v n2=%v", n1.Joined(), n2.Joined())
	}
	if n1.Slot() == n2.Slot() {
		t.Fatalf("both nodes share slot %d", n1.Slot())
	}
	if n1.CycleLength() != 30*sim.Millisecond {
		t.Fatalf("cycle = %v, want 30ms", n1.CycleLength())
	}
	// ~66 cycles in 2s; joins take a couple of cycles.
	if got := r.bs.Stats().BeaconsSent; got < 60 || got > 67 {
		t.Fatalf("beacons sent = %d, want ~66", got)
	}
	st1 := n1.Stats()
	if st1.DataSent < 50 {
		t.Fatalf("node1 sent %d frames, want >= 50", st1.DataSent)
	}
	if st1.DataAcked < st1.DataSent-2 {
		t.Fatalf("acks missing: sent=%d acked=%d", st1.DataSent, st1.DataAcked)
	}
	if got := r.bs.Stats().DataReceived; got < 100 {
		t.Fatalf("bs received %d frames, want >= 100", got)
	}
	// Forwarded frames attribute to the right nodes.
	seen := map[uint8]int{}
	for _, rec := range *recs {
		if len(rec.Payload) != 18 {
			t.Fatalf("payload length %d, want 18", len(rec.Payload))
		}
		seen[rec.Node]++
	}
	if seen[1] < 50 || seen[2] < 50 {
		t.Fatalf("per-node receipts = %v", seen)
	}
}

func TestStaticBeaconStaysSmallAfterJoins(t *testing.T) {
	// Grants must expire so the steady-state static beacon returns to
	// its 8-byte base (the calibration depends on it).
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 2)
	n1 := r.addNode(1, ProtoStatic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	r.k.RunUntil(2 * sim.Second)
	if !n1.Joined() {
		t.Fatalf("node did not join")
	}
	if len(r.bs.beaconEntries()) != 0 {
		t.Fatalf("grants still advertised long after join")
	}
}

func TestStaticNetworkFull(t *testing.T) {
	r := newRig(t, ProtoStatic, 60*sim.Millisecond, 3)
	var nodes []*NodeMac
	for id := uint8(1); id <= 6; id++ {
		nodes = append(nodes, r.addNode(id, ProtoStatic))
	}
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		for _, n := range nodes {
			n.Start()
		}
	})
	r.k.RunUntil(10 * sim.Second)
	joined := 0
	for _, n := range nodes {
		if n.Joined() {
			joined++
		}
	}
	if joined != 5 {
		t.Fatalf("joined = %d, want exactly the 5 available slots", joined)
	}
	if r.bs.Stats().SSRRejected == 0 {
		t.Fatalf("no SSR rejections recorded for the sixth node")
	}
}

func TestDynamicCycleGrowsWithJoins(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 4)
	n1 := r.addNode(1, ProtoDynamic)
	n2 := r.addNode(2, ProtoDynamic)
	n3 := r.addNode(3, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) { r.bs.Start() })
	// Stagger the joins so cycle growth is observable.
	r.k.Schedule(5*sim.Millisecond, func(*sim.Kernel) { n1.Start() })
	r.k.Schedule(300*sim.Millisecond, func(*sim.Kernel) { n2.Start() })
	r.k.Schedule(600*sim.Millisecond, func(*sim.Kernel) { n3.Start() })
	r.k.RunUntil(2 * sim.Second)

	for i, n := range []*NodeMac{n1, n2, n3} {
		if !n.Joined() {
			t.Fatalf("node %d not joined", i+1)
		}
	}
	if got := r.bs.CycleLength(); got != 40*sim.Millisecond {
		t.Fatalf("cycle with 3 nodes = %v, want 40ms", got)
	}
	if got := n1.CycleLength(); got != 40*sim.Millisecond {
		t.Fatalf("node view of cycle = %v, want 40ms", got)
	}
	if r.tracer.Count(metrics.KindCycleGrow) != 3 {
		t.Fatalf("cycle-grow events = %d, want 3", r.tracer.Count(metrics.KindCycleGrow))
	}
	// Slots are 0,1,2 in join order.
	if n1.Slot() != 0 || n2.Slot() != 1 || n3.Slot() != 2 {
		t.Fatalf("slots = %d,%d,%d", n1.Slot(), n2.Slot(), n3.Slot())
	}
	if nodes := r.bs.Nodes(); len(nodes) != 3 || nodes[0] != 1 || nodes[1] != 2 || nodes[2] != 3 {
		t.Fatalf("bs node table = %v", nodes)
	}
}

func TestDynamicDataFlow(t *testing.T) {
	r := newRig(t, ProtoDynamic, 0, 5)
	n1 := r.addNode(1, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(20 * sim.Millisecond)
	})
	r.k.RunUntil(3 * sim.Second)
	if !n1.Joined() {
		t.Fatalf("node not joined")
	}
	st := n1.Stats()
	// ~150 cycles of 20ms in steady state.
	if st.DataSent < 100 {
		t.Fatalf("sent %d, want >= 100", st.DataSent)
	}
	if st.DataAcked < st.DataSent-2 {
		t.Fatalf("sent=%d acked=%d", st.DataSent, st.DataAcked)
	}
	if st.AckMissed > 2 {
		t.Fatalf("ack misses = %d on a clean channel", st.AckMissed)
	}
}

func TestNodeRejoinsAfterBeaconLoss(t *testing.T) {
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 6)
	n1 := r.addNode(1, ProtoStatic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	// Cut the BS->node link after the node joins.
	r.k.Schedule(sim.Second, func(*sim.Kernel) {
		r.ch.SetLink("bs", "node1", channel.Link{Connected: false})
	})
	r.k.RunUntil(3 * sim.Second)
	st := n1.Stats()
	if st.BeaconsMissed < uint64(missedBeaconRejoinThreshold) {
		t.Fatalf("missed = %d, want >= %d", st.BeaconsMissed, missedBeaconRejoinThreshold)
	}
	if st.Rejoins == 0 {
		t.Fatalf("node never attempted rejoin")
	}
	if n1.Joined() {
		t.Fatalf("node claims joined with a dead downlink")
	}
}

func TestQueueOverflowDropsPayloads(t *testing.T) {
	r := newRig(t, ProtoStatic, 120*sim.Millisecond, 7)
	n1 := r.addNode(1, ProtoStatic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		// Flood far beyond one payload per cycle.
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(10 * sim.Millisecond)
	})
	r.k.RunUntil(3 * sim.Second)
	if n1.Stats().QueueDrops == 0 {
		t.Fatalf("flooding produced no queue drops")
	}
}

func TestCollidingJoinersEventuallyBothJoin(t *testing.T) {
	// Two nodes starting simultaneously may collide on SSRs; random
	// offsets must disentangle them within a few cycles.
	r := newRig(t, ProtoDynamic, 0, 8)
	n1 := r.addNode(1, ProtoDynamic)
	n2 := r.addNode(2, ProtoDynamic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
		n2.Start()
	})
	r.k.RunUntil(3 * sim.Second)
	if !n1.Joined() || !n2.Joined() {
		t.Fatalf("simultaneous joiners: n1=%v n2=%v", n1.Joined(), n2.Joined())
	}
	if n1.Slot() == n2.Slot() {
		t.Fatalf("slot clash: %d", n1.Slot())
	}
}

func TestControlAccountingPositive(t *testing.T) {
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 9)
	n1 := r.addNode(1, ProtoStatic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(30 * sim.Millisecond)
	})
	r.k.RunUntil(2 * sim.Second)
	if n1.ControlRxTime() <= 0 {
		t.Fatalf("no control RX time accounted")
	}
	if n1.ControlTxTime() <= 0 {
		t.Fatalf("no control TX time accounted (SSR)")
	}
	if n1.JoinIdleTime() <= 0 {
		t.Fatalf("no join idle listening accounted")
	}
	// Steady-state beacon windows dominate: ~66 cycles at ~3.2ms.
	if got := n1.ControlRxTime(); got < 100*sim.Millisecond {
		t.Fatalf("control RX = %v, implausibly low", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64, int) {
		r := newRig(t, ProtoDynamic, 0, 42)
		n1 := r.addNode(1, ProtoDynamic)
		n2 := r.addNode(2, ProtoDynamic)
		r.k.Schedule(0, func(*sim.Kernel) {
			r.bs.Start()
			n1.Start()
			n2.Start()
		})
		n1.OnJoined(func() {
			tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
			tm.StartPeriodic(30 * sim.Millisecond)
		})
		r.k.RunUntil(2 * sim.Second)
		return n1.Stats().DataSent, r.bs.Stats().DataReceived, len(r.tracer.Events())
	}
	s1, d1, e1 := run()
	s2, d2, e2 := run()
	if s1 != s2 || d1 != d2 || e1 != e2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", s1, d1, e1, s2, d2, e2)
	}
}

func TestQueueingLatencyBounded(t *testing.T) {
	// Streaming over a 30ms cycle: a payload waits at most about one
	// cycle for its slot (plus the load pipeline), and on average about
	// half of one.
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 14)
	n1 := r.addNode(1, ProtoStatic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(30 * sim.Millisecond)
	})
	r.k.RunUntil(5 * sim.Second)
	st := n1.Stats()
	if st.LatencyCount < 100 {
		t.Fatalf("latency samples = %d", st.LatencyCount)
	}
	if st.AvgLatency() <= 0 || st.AvgLatency() > 45*sim.Millisecond {
		t.Fatalf("avg latency = %v, want within ~1.5 cycles", st.AvgLatency())
	}
	if st.LatencyMax > 95*sim.Millisecond {
		t.Fatalf("max latency = %v, want within ~3 cycles", st.LatencyMax)
	}
	if st.LatencyMax < st.AvgLatency() {
		t.Fatalf("max %v below avg %v", st.LatencyMax, st.AvgLatency())
	}
}

func TestLatencyGrowsWithCycle(t *testing.T) {
	// TDMA's performance trade: longer cycles save radio energy but
	// delay delivery proportionally.
	// Sends arrive at a period incommensurate with the cycle, so their
	// phase sweeps the whole cycle and the mean wait approaches half a
	// cycle (phase-locked traffic would see a constant, alignment-
	// dependent wait instead).
	measure := func(cycle, sendEvery sim.Time, seed int64) sim.Time {
		r := newRig(t, ProtoStatic, cycle, seed)
		n1 := r.addNode(1, ProtoStatic)
		r.k.Schedule(0, func(*sim.Kernel) {
			r.bs.Start()
			n1.Start()
		})
		n1.OnJoined(func() {
			tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
			tm.StartPeriodic(sendEvery)
		})
		r.k.RunUntil(20 * sim.Second)
		return n1.Stats().AvgLatency()
	}
	short := measure(30*sim.Millisecond, 37*sim.Millisecond, 15)
	long := measure(120*sim.Millisecond, 149*sim.Millisecond, 15)
	if long < 2*short {
		t.Fatalf("latency did not scale with cycle: %v vs %v", short, long)
	}
}

func TestVariantString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatalf("variant names wrong")
	}
}

func TestBSRequiresStaticCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("static BS without cycle did not panic")
		}
	}()
	k := sim.NewKernel(1)
	ch := channel.New(k)
	prof := platform.BaseStation()
	l := energy.NewLedger()
	m := mcu.New(k, prof.MCU, l)
	s := tinyos.NewSched(k, m, 0)
	r := radio.New(k, "bs", prof.Radio, ch, s, l, nil)
	NewBS(k, BSConfig{Protocol: ProtoStatic, Profile: &prof}, s, r, l, nil)
}

func TestSendBeforeJoinQueues(t *testing.T) {
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 10)
	n1 := r.addNode(1, ProtoStatic)
	if !n1.Send(make([]byte, 18)) {
		t.Fatalf("pre-join send rejected")
	}
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
	})
	r.k.RunUntil(2 * sim.Second)
	// The queued payload flows once joined.
	if r.bs.Stats().DataReceived == 0 {
		t.Fatalf("pre-join payload never delivered")
	}
}

func TestAckAddressesAreUnicast(t *testing.T) {
	// Overhearing check: node2's radio never accepts node1's acks.
	r := newRig(t, ProtoStatic, 30*sim.Millisecond, 11)
	n1 := r.addNode(1, ProtoStatic)
	n2 := r.addNode(2, ProtoStatic)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
		n2.Start()
	})
	n1.OnJoined(func() {
		tm := sim.NewTimer(r.k, func(*sim.Kernel) { n1.Send(make([]byte, 18)) })
		tm.StartPeriodic(30 * sim.Millisecond)
	})
	r.k.RunUntil(2 * sim.Second)
	if got := n2.Stats().DataAcked; got != 0 {
		t.Fatalf("node2 claimed %d acks it never earned", got)
	}
	_ = packet.AddrBSData
}
