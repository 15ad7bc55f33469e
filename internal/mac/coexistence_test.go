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

// ban is one network on a shared medium.
type ban struct {
	bs    *BS
	nodes []*NodeMac
}

// buildBAN assembles a static-TDMA network under its own address plan.
func buildBAN(t *testing.T, k *sim.Kernel, ch *channel.Channel, tracer *metrics.Recorder,
	netID uint8, nodeCount int, cycle sim.Time) *ban {
	t.Helper()
	plan := packet.PlanForNetwork(netID)
	bsProf := platform.BaseStation()
	bsLedger := energy.NewLedger()
	bsMCU := mcu.New(k, bsProf.MCU, bsLedger)
	bsSched := tinyos.NewSched(k, bsMCU, 0)
	bsName := "bs" + string(rune('0'+netID))
	bsRadio := radio.New(k, bsName, bsProf.Radio, ch, bsSched, bsLedger, tracer)
	out := &ban{}
	out.bs = NewBS(k, BSConfig{
		Protocol: ProtoStatic, Profile: &bsProf, StaticCycle: cycle, Plan: plan,
	}, bsSched, bsRadio, bsLedger, tracer)

	prof := platform.IMEC()
	for i := 0; i < nodeCount; i++ {
		id := uint8(i + 1)
		ledger := energy.NewLedger()
		m := mcu.New(k, prof.MCU, ledger)
		sched := tinyos.NewSched(k, m, 0)
		name := "n" + string(rune('0'+netID)) + "." + string(rune('0'+id))
		rad := radio.New(k, name, prof.Radio, ch, sched, ledger, tracer)
		nm := NewNodeMac(k, NodeConfig{
			Protocol: ProtoStatic, NodeID: id, Profile: &prof, Plan: plan,
		}, sched, rad, ledger, tracer)
		out.nodes = append(out.nodes, nm)
	}
	return out
}

func TestPlansAreDisjoint(t *testing.T) {
	a := packet.PlanForNetwork(0)
	b := packet.PlanForNetwork(1)
	c := packet.PlanForNetwork(2)
	seen := map[packet.Address]bool{}
	for _, p := range []packet.AddressPlan{a, b, c} {
		for _, addr := range []packet.Address{p.Beacon, p.BSData, p.BSCtrl, p.NodeAddr(1), p.NodeAddr(5)} {
			if seen[addr] {
				t.Fatalf("address 0x%06x reused across plans", uint32(addr))
			}
			seen[addr] = true
		}
	}
	// Plan 0 is the default plan.
	if a != packet.DefaultPlan() {
		t.Fatalf("plan 0 differs from the default plan")
	}
}

func TestTwoBANsCoexistLogically(t *testing.T) {
	k := sim.NewKernel(31)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	// BAN B's cycle is 100 us longer, so its schedule slides through
	// every phase of BAN A's during the run — including full overlap.
	banA := buildBAN(t, k, ch, tracer, 1, 2, 30*sim.Millisecond)
	banB := buildBAN(t, k, ch, tracer, 2, 2, 30*sim.Millisecond+100*sim.Microsecond)
	recsA := logData(banA.bs)

	k.Schedule(0, func(*sim.Kernel) { banA.bs.Start() })
	k.Schedule(3*sim.Millisecond, func(*sim.Kernel) { banB.bs.Start() })
	for i, n := range append(append([]*NodeMac{}, banA.nodes...), banB.nodes...) {
		n := n
		k.Schedule(sim.Time(i+1)*7*sim.Millisecond, func(*sim.Kernel) { n.Start() })
	}
	for _, n := range []*NodeMac{banA.nodes[0], banB.nodes[0]} {
		n := n
		n.OnJoined(func() {
			tm := sim.NewTimer(k, func(*sim.Kernel) { n.Send(make([]byte, 18)) })
			tm.StartPeriodic(45 * sim.Millisecond)
		})
	}
	k.RunUntil(10 * sim.Second)

	// Every node joined its own network only.
	for _, n := range banA.nodes {
		if !n.Joined() {
			t.Fatalf("BAN A node failed to join amid interference")
		}
	}
	for _, n := range banB.nodes {
		if !n.Joined() {
			t.Fatalf("BAN B node failed to join amid interference")
		}
	}
	if got := len(banA.bs.Nodes()); got != 2 {
		t.Fatalf("BAN A roster = %d nodes, want 2 (cross-join?)", got)
	}
	if got := len(banB.bs.Nodes()); got != 2 {
		t.Fatalf("BAN B roster = %d nodes, want 2 (cross-join?)", got)
	}
	// Data flows in both networks despite cross-BAN collisions.
	if banA.bs.Stats().DataReceived < 50 || banB.bs.Stats().DataReceived < 50 {
		t.Fatalf("data starved: A=%d B=%d",
			banA.bs.Stats().DataReceived, banB.bs.Stats().DataReceived)
	}
	// The shared channel shows cross-network collisions: uncoordinated
	// TDMA schedules must overlap eventually.
	if ch.Stats().Collisions == 0 {
		t.Fatalf("interleaved BANs produced no collisions in 10s")
	}
	// Sanity: no payload crossed networks. BAN A forwards only frames
	// from its own (2-node) roster.
	for _, rec := range *recsA {
		if rec.Node != 1 && rec.Node != 2 {
			t.Fatalf("BAN A logged foreign node %d", rec.Node)
		}
	}
}

func TestCrossBANFramesAreOverheardNotAccepted(t *testing.T) {
	k := sim.NewKernel(33)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	banA := buildBAN(t, k, ch, tracer, 1, 1, 30*sim.Millisecond)
	banB := buildBAN(t, k, ch, tracer, 2, 1, 30*sim.Millisecond)
	k.Schedule(0, func(*sim.Kernel) { banA.bs.Start() })
	// BAN B's base station is silent; its node searches forever and
	// overhears BAN A's beacons — address-filtered, never delivered.
	k.Schedule(0, func(*sim.Kernel) { banB.nodes[0].Start() })
	k.Schedule(5*sim.Millisecond, func(*sim.Kernel) { banA.nodes[0].Start() })
	k.RunUntil(3 * sim.Second)

	if banB.nodes[0].Joined() {
		t.Fatalf("node joined a foreign network")
	}
	if banB.nodes[0].Stats().BeaconsHeard != 0 {
		t.Fatalf("foreign beacons accepted: %d", banB.nodes[0].Stats().BeaconsHeard)
	}
	if tracer.Count(metrics.KindAddrFilter) == 0 {
		t.Fatalf("no address-filter events for overheard foreign traffic")
	}
}
