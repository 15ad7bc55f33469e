package mac

import (
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// protoRig assembles a BS plus sensor nodes for any protocol, through
// NewBaseMAC and NewNode (the same path core.Run takes).
type protoRig struct {
	t       *testing.T
	k       *sim.Kernel
	ch      *channel.Channel
	tracer  *metrics.Recorder
	bs      BSMAC
	nodes   []NodeMAC
	ledgers []*energy.Ledger
	mcus    []*mcu.MCU
	radios  []*radio.Radio
}

// crash powers node i off (MAC, radio and MCU, like node.Sensor.Crash);
// reboot cold-boots it back into the join procedure.
func (r *protoRig) crash(i int) {
	r.nodes[i].Crash()
	r.radios[i].Crash()
	r.mcus[i].Crash()
}

func (r *protoRig) reboot(i int) {
	r.mcus[i].Reboot()
	r.nodes[i].Start()
}

func newProtoRig(t *testing.T, proto Protocol, params Params, cycle sim.Time, seed int64) *protoRig {
	t.Helper()
	k := sim.NewKernel(seed)
	r := &protoRig{t: t, k: k, ch: channel.New(k), tracer: metrics.NewRecorder(0)}

	bsProf := platform.BaseStation()
	bsLedger := energy.NewLedger()
	bsMCU := mcu.New(k, bsProf.MCU, bsLedger)
	bsSched := tinyos.NewSched(k, bsMCU, 0)
	bsRadio := radio.New(k, "bs", bsProf.Radio, r.ch, bsSched, bsLedger, r.tracer)
	r.bs = NewBaseMAC(k, BSConfig{
		Protocol:    proto,
		Params:      params,
		Profile:     &bsProf,
		StaticCycle: cycle,
	}, bsSched, bsRadio, bsLedger, r.tracer)
	return r
}

func (r *protoRig) addNode(id uint8, proto Protocol, params Params) NodeMAC {
	r.t.Helper()
	prof := platform.IMEC()
	ledger := energy.NewLedger()
	m := mcu.New(r.k, prof.MCU, ledger)
	sched := tinyos.NewSched(r.k, m, 0)
	rad := radio.New(r.k, fmt.Sprintf("node%d", id), prof.Radio, r.ch, sched, ledger, r.tracer)
	nm := NewNode(r.k, NodeConfig{
		Protocol: proto,
		Params:   params,
		NodeID:   id,
		Profile:  &prof,
	}, sched, rad, ledger, r.tracer)
	r.nodes = append(r.nodes, nm)
	r.ledgers = append(r.ledgers, ledger)
	r.mcus = append(r.mcus, m)
	r.radios = append(r.radios, rad)
	return nm
}

// auditAll fails the test on any broken frame or protocol law.
func (r *protoRig) auditAll(when string) {
	r.t.Helper()
	for i, n := range r.nodes {
		for _, v := range n.AuditFrame() {
			r.t.Errorf("%s: node %d frame law: %s", when, i+1, v)
		}
		for _, v := range n.AuditProtocol() {
			r.t.Errorf("%s: node %d protocol law: %s", when, i+1, v)
		}
	}
	for _, v := range r.bs.AuditTable() {
		r.t.Errorf("%s: bs table law: %s", when, v)
	}
}

func TestCSMAJoinAndSteadyState(t *testing.T) {
	r := newProtoRig(t, ProtoCSMA, Params{}, 30*sim.Millisecond, 1)
	n1 := r.addNode(1, ProtoCSMA, Params{})
	n2 := r.addNode(2, ProtoCSMA, Params{})
	recs := logData(r.bs)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
		n2.Start()
	})
	for _, n := range []NodeMAC{n1, n2} {
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
	if n1.CycleLength() != 30*sim.Millisecond {
		t.Fatalf("cycle = %v, want 30ms", n1.CycleLength())
	}
	for i, n := range []NodeMAC{n1, n2} {
		st := n.Stats()
		if st.DataSent < 40 {
			t.Fatalf("node%d sent %d frames, want >= 40", i+1, st.DataSent)
		}
		// Equal backoff draws collide (no ack protection between a data
		// burst and its ack either), so contention access tolerates real
		// loss where TDMA delivers ~100%.
		if st.DataAcked < st.DataSent*7/10 {
			t.Fatalf("node%d acks: sent=%d acked=%d", i+1, st.DataSent, st.DataAcked)
		}
		if st.CCAAttempts == 0 {
			t.Fatalf("node%d performed no channel assessments", i+1)
		}
		if st.CCAAttempts-st.CCABusy < st.DataSent {
			t.Fatalf("node%d clear assessments %d below bursts %d",
				i+1, st.CCAAttempts-st.CCABusy, st.DataSent)
		}
	}
	// Attribution: the BS charges frames to the right sender via the ID
	// header, and payloads arrive stripped of it.
	seen := map[uint8]int{}
	for _, rec := range *recs {
		if len(rec.Payload) != 18 {
			t.Fatalf("payload length %d, want 18 (header must be stripped)", len(rec.Payload))
		}
		seen[rec.Node]++
	}
	if seen[1] < 40 || seen[2] < 40 {
		t.Fatalf("attribution: %v, want >= 40 frames per node", seen)
	}
	r.auditAll("steady state")
}

func TestCSMABackoffContention(t *testing.T) {
	// Five saturating senders on one 30 ms cycle: contention must produce
	// busy verdicts, and the channel-access laws must hold under it.
	r := newProtoRig(t, ProtoCSMA, Params{}, 30*sim.Millisecond, 7)
	var nodes []NodeMAC
	for id := uint8(1); id <= 5; id++ {
		nodes = append(nodes, r.addNode(id, ProtoCSMA, Params{}))
	}
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		for _, n := range nodes {
			n.Start()
		}
	})
	for _, n := range nodes {
		n := n
		n.OnJoined(func() {
			tm := sim.NewTimer(r.k, func(*sim.Kernel) { n.Send(make([]byte, 18)) })
			tm.StartPeriodic(30 * sim.Millisecond)
		})
	}
	r.k.RunUntil(3 * sim.Second)

	joined := 0
	var busy, attempts uint64
	for _, n := range nodes {
		if n.Joined() {
			joined++
		}
		st := n.Stats()
		busy += st.CCABusy
		attempts += st.CCAAttempts
	}
	if joined < 4 {
		t.Fatalf("only %d/5 nodes joined under contention", joined)
	}
	if attempts == 0 {
		t.Fatalf("no channel assessments under saturation")
	}
	if got := r.bs.Stats().DataReceived; got < 200 {
		t.Fatalf("bs received %d frames, want >= 200", got)
	}
	r.auditAll("contention")
}

func TestLPLDeliveryAndDutyCycle(t *testing.T) {
	r := newProtoRig(t, ProtoLPL, Params{}, 0, 3)
	n1 := r.addNode(1, ProtoLPL, Params{})
	n2 := r.addNode(2, ProtoLPL, Params{})
	recs := logData(r.bs)
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n1.Start()
		n2.Start()
	})
	for _, n := range []NodeMAC{n1, n2} {
		n := n
		n.OnJoined(func() {
			tm := sim.NewTimer(r.k, func(*sim.Kernel) { n.Send(make([]byte, 18)) })
			tm.StartPeriodic(500 * sim.Millisecond)
		})
	}
	r.k.RunUntil(8 * sim.Second)

	if !n1.Joined() || !n2.Joined() {
		t.Fatalf("nodes not joined: n1=%v n2=%v", n1.Joined(), n2.Joined())
	}
	if n1.CycleLength() != DefaultLPLCheckInterval {
		t.Fatalf("cycle = %v, want the %v check interval", n1.CycleLength(), DefaultLPLCheckInterval)
	}
	bstats := r.bs.Stats()
	if bstats.Probes < 30 {
		t.Fatalf("bs probed %d times, want >= 30", bstats.Probes)
	}
	if bstats.EarlyAcksSent == 0 {
		t.Fatalf("no strobe train was ever truncated")
	}
	seen := map[uint8]int{}
	for _, rec := range *recs {
		if len(rec.Payload) != 18 {
			t.Fatalf("payload length %d, want 18 (header must be stripped)", len(rec.Payload))
		}
		seen[rec.Node]++
	}
	if seen[1] < 10 || seen[2] < 10 {
		t.Fatalf("attribution: %v, want >= 10 frames per node", seen)
	}
	for i, n := range []NodeMAC{n1, n2} {
		st := n.Stats()
		if st.StrobesSent == 0 || st.EarlyAcks == 0 {
			t.Fatalf("node%d: strobes=%d earlyAcks=%d, want both > 0",
				i+1, st.StrobesSent, st.EarlyAcks)
		}
		if st.DataAcked < st.DataSent*7/10 {
			t.Fatalf("node%d acks: sent=%d acked=%d", i+1, st.DataSent, st.DataAcked)
		}
		if st.BeaconsHeard != 0 {
			t.Fatalf("node%d heard %d beacons in a beaconless protocol", i+1, st.BeaconsHeard)
		}
	}
	r.auditAll("lpl steady state")
}
