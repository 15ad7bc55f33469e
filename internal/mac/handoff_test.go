package mac

import (
	"fmt"
	"math"
	"strings"
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

// The node's ack-process ISR and the base station's ack turnaround ISR
// run without completion callbacks: their MACs speculate on the
// callbacks at submission and fall back when something enters them
// before the hand-off. These tests run a static-TDMA network twice on
// both schedulers, speculating and with the MACs' callbacks switched on
// (the reference: an event at the ISR's completion runs the callback,
// and the base station's forwarding task has its callback too), inject
// one entry inside an ack's window, and require both runs to agree: the
// energy meters bit for bit, the trace timeline, the counters, and the
// queues, radio modes and MCU completion instants probed around the
// window.

// hoNode is one station of the hand-off rig: its MAC and the parts
// under it.
type hoNode struct {
	name   string
	mac    *NodeMac
	sched  *tinyos.Sched
	mcu    *mcu.MCU
	radio  *radio.Radio
	ledger *energy.Ledger
}

// hoRig is a static-TDMA base station and two nodes.
type hoRig struct {
	k       *sim.Kernel
	tracer  *metrics.Recorder
	bs      *BS
	bsSched *tinyos.Sched
	bsMCU   *mcu.MCU
	bsRadio *radio.Radio
	bsLed   *energy.Ledger
	nodes   []*hoNode
	log     []string
}

const hoCycle = 30 * sim.Millisecond

func newHoRig(newKernel func(int64) *sim.Kernel, callbacks bool) *hoRig {
	k := newKernel(3)
	r := &hoRig{k: k, tracer: metrics.NewRecorder(0)}
	ch := channel.New(k)
	bsProf := platform.BaseStation()
	r.bsLed = energy.NewLedger()
	r.bsMCU = mcu.New(k, bsProf.MCU, r.bsLed)
	r.bsSched = tinyos.NewSched(k, r.bsMCU, 0)
	r.bsRadio = radio.New(k, "bs", bsProf.Radio, ch, r.bsSched, r.bsLed, r.tracer)
	r.bs = NewBS(k, BSConfig{Protocol: ProtoStatic, Profile: &bsProf, StaticCycle: hoCycle},
		r.bsSched, r.bsRadio, r.bsLed, r.tracer)
	r.bs.callbacks = callbacks
	for id := uint8(1); id <= 2; id++ {
		prof := platform.IMEC()
		n := &hoNode{name: fmt.Sprintf("node%d", id), ledger: energy.NewLedger()}
		n.mcu = mcu.New(k, prof.MCU, n.ledger)
		n.sched = tinyos.NewSched(k, n.mcu, 0)
		n.radio = radio.New(k, n.name, prof.Radio, ch, n.sched, n.ledger, r.tracer)
		n.mac = NewNodeMac(k, NodeConfig{Protocol: ProtoStatic, NodeID: id, Profile: &prof},
			n.sched, n.radio, n.ledger, r.tracer)
		n.mac.callbacks = callbacks
		r.nodes = append(r.nodes, n)
	}
	k.ScheduleAt(0, func(*sim.Kernel) {
		r.bs.Start()
		for _, n := range r.nodes {
			n.mac.Start()
		}
	})
	// Each node sends an 18-byte payload every cycle from 1 s on.
	for i, n := range r.nodes {
		n := n
		var send func(*sim.Kernel)
		send = func(k *sim.Kernel) {
			n.mac.Send(make([]byte, 18))
			k.Schedule(hoCycle, send)
		}
		k.ScheduleAt(sim.Second+sim.Time(i)*7*sim.Millisecond, send)
	}
	return r
}

// probe notes the radio and MCU state of every station at the instant
// it runs, and with tail set, past the window, its queues and the MCU's
// completion instant too. Inside the window a speculation has already
// taken the payload off the MAC's queue, counted the chained task in the
// task queue and chained work behind the MCU's last submission: nothing
// reads those before the hand-off without settling it first.
func (r *hoRig) probe(tag string, tail bool) {
	note := func(name string, s *tinyos.Sched, m *mcu.MCU, rad *radio.Radio) {
		line := fmt.Sprintf("%d %s %s: mode %v loaded %v busy %v", r.k.Now(), tag, name, rad.Mode(), rad.Loaded(), m.Busy())
		if tail {
			line += fmt.Sprintf(" queue %d completes %d", s.QueueLen(), m.Completion().At)
		}
		r.log = append(r.log, line)
	}
	note("bs", r.bsSched, r.bsMCU, r.bsRadio)
	for _, n := range r.nodes {
		note(n.name, n.sched, n.mcu, n.radio)
		if tail {
			r.log = append(r.log, fmt.Sprintf("  %s mac queue %d joined %v", n.name, n.mac.queue.Len(), n.mac.Joined()))
		}
	}
}

// summary renders everything the two runs must agree on.
func (r *hoRig) summary() string {
	var b strings.Builder
	for _, l := range r.log {
		b.WriteString(l + "\n")
	}
	for _, e := range r.tracer.Events() {
		fmt.Fprintf(&b, "%d %s %v %s\n", e.At, e.Node, e.Kind, e.Detail)
	}
	meters := func(name string, l *energy.Ledger) {
		l.Flush(r.k.Now())
		for _, c := range l.Report().Components {
			for _, st := range c.States {
				fmt.Fprintf(&b, "%s %s %s %d %x\n", name, c.Name, st.State, st.Time, math.Float64bits(st.EnergyJ))
			}
		}
	}
	meters("bs", r.bsLed)
	fmt.Fprintf(&b, "bs %+v %+v\n", r.bs.Stats(), r.bsRadio.Stats())
	for _, n := range r.nodes {
		meters(n.name, n.ledger)
		fmt.Fprintf(&b, "%s %+v %+v\n", n.name, n.mac.Stats(), n.radio.Stats())
	}
	return b.String()
}

// hoEntry is something that enters a station inside an ack's window.
// The base station's one timer, its beacon preparation, lies outside
// every turnaround window of this geometry; a slot request's task is
// its MCU callback entry instead.
type hoEntry struct {
	name string
	bs   bool // inside the base station's turnaround, not the node's ack-process ISR
	act  func(r *hoRig, n *hoNode)
}

func hoEntries() []hoEntry {
	crash := func(r *hoRig, n *hoNode) {
		n.mac.Crash()
		n.radio.Crash()
		n.mcu.Crash()
		n.sched.Crash()
		r.k.Schedule(50*sim.Millisecond, func(*sim.Kernel) {
			n.mcu.Reboot()
			n.mac.Start()
		})
	}
	fill := func(s *tinyos.Sched) {
		for i := 0; i < tinyos.DefaultQueueCap+1; i++ {
			s.PostFn("filler", 3000, func() {})
		}
	}
	stray := func(dest packet.Address) packet.Frame {
		return packet.Frame{Dest: dest, Payload: packet.Ack{}.AppendMarshal(nil)}
	}
	return []hoEntry{
		{"nothing", false, func(*hoRig, *hoNode) {}},
		{"send", false, func(r *hoRig, n *hoNode) { n.mac.Send(make([]byte, 18)) }},
		{"frame", false, func(r *hoRig, n *hoNode) { n.mac.onFrame(stray(n.mac.cfg.Plan.NodeAddr(n.mac.cfg.NodeID))) }},
		{"timer", false, func(r *hoRig, n *hoNode) { r.k.ScheduleAt(r.k.Now(), n.mac.onWindow) }},
		{"audit", false, func(r *hoRig, n *hoNode) { n.mac.AuditFrame(); n.mac.AuditProtocol() }},
		{"reset", false, func(r *hoRig, n *hoNode) { n.mac.ResetAccounting() }},
		{"crash", false, crash},
		{"degrade", false, func(r *hoRig, n *hoNode) { n.mac.EnterBeaconOnly() }},
		{"interrupt", false, func(r *hoRig, n *hoNode) { n.sched.Interrupt("isr", 400, nil) }},
		{"full queue", false, func(r *hoRig, n *hoNode) { fill(n.sched) }},
		{"nothing", true, func(*hoRig, *hoNode) {}},
		{"frame", true, func(r *hoRig, n *hoNode) { r.bs.onFrame(stray(r.bs.cfg.Plan.BSCtrl)) }},
		{"slot request", true, func(r *hoRig, n *hoNode) {
			r.bs.onFrame(packet.Frame{Dest: r.bs.cfg.Plan.BSCtrl, Payload: packet.SSR{NodeID: 3, Nonce: 1}.AppendMarshal(nil)})
		}},
		{"audit", true, func(r *hoRig, n *hoNode) { r.bs.AuditTable() }},
		{"reset", true, func(r *hoRig, n *hoNode) { r.bs.ResetAccounting() }},
		{"interrupt", true, func(r *hoRig, n *hoNode) { r.bsSched.Interrupt("isr", 400, nil) }},
		{"full queue", true, func(r *hoRig, n *hoNode) { fill(r.bsSched) }},
	}
}

// hoWindows finds the instants the reference run hands node 1 its 20th
// acknowledgement after 1 s and the base station node 1's 20th data
// frame after 1 s: each starts an ack window.
func hoWindows(newKernel func(int64) *sim.Kernel) (ack, data sim.Time) {
	r := newHoRig(newKernel, true)
	r.k.RunUntil(2 * sim.Second)
	acks, datas := 0, 0
	for _, e := range r.tracer.Events() {
		if e.At < sim.Second {
			continue
		}
		switch {
		case e.Node == "node1" && e.Kind == metrics.KindAckRx:
			if acks++; acks == 20 {
				ack = e.At
			}
		case e.Node == "bs" && e.Kind == metrics.KindDataRx && strings.HasPrefix(e.Detail, "node=1 "):
			if datas++; datas == 20 {
				data = e.At
			}
		}
	}
	return ack, data
}

// hoRun plays entry inside the window starting at at and reports the
// summary, the kernel events dispatched, and whether a speculation was
// live when the entry came.
func hoRun(newKernel func(int64) *sim.Kernel, callbacks bool, e hoEntry, at sim.Time) (sum string, events uint64, live bool) {
	r := newHoRig(newKernel, callbacks)
	n := r.nodes[0]
	r.k.ScheduleAt(at+sim.Microsecond, func(*sim.Kernel) {
		r.probe("before", false)
		live = n.mac.handOffs.Pending()
		if e.bs {
			live = r.bs.handOffs.Pending()
		}
		e.act(r, n)
		r.probe("after", false)
	})
	for _, d := range []sim.Time{20 * sim.Microsecond, 500 * sim.Microsecond, 2 * sim.Millisecond, 10 * sim.Millisecond} {
		d := d
		r.k.ScheduleAt(at+d, func(*sim.Kernel) { r.probe(fmt.Sprintf("+%v", d), d >= 2*sim.Millisecond) })
	}
	r.k.RunUntil(at + 200*sim.Millisecond)
	return r.summary(), r.k.Executed(), live
}

// TestAckHandOffsMatchCallbacks pins the speculated hand-offs against
// their callbacks, one entry inside the window per case, on both
// schedulers.
func TestAckHandOffsMatchCallbacks(t *testing.T) {
	for _, kern := range []struct {
		name string
		new  func(int64) *sim.Kernel
	}{{"wheel", sim.NewKernel}, {"heap", sim.NewHeapKernel}} {
		ack, data := hoWindows(kern.new)
		if ack == 0 || data == 0 {
			t.Fatalf("%s: no ack window found (ack %v, data %v)", kern.name, ack, data)
		}
		for _, e := range hoEntries() {
			at, side := ack, "node"
			if e.bs {
				at, side = data, "bs"
			}
			want, refEvents, _ := hoRun(kern.new, true, e, at)
			got, events, live := hoRun(kern.new, false, e, at)
			if !live {
				t.Errorf("%s/%s %s: no speculation live when the entry came", kern.name, side, e.name)
			}
			if got != want {
				t.Errorf("%s/%s %s: speculated run differs from the callbacks':\n%s", kern.name, side, e.name, firstDiff(got, want))
			}
			if e.name == "nothing" && events >= refEvents {
				t.Errorf("%s/%s nothing: %d events speculating, %d with callbacks; want fewer", kern.name, side, events, refEvents)
			}
		}
	}
}

// TestSecondAckInWindowDropped hands the static-TDMA base station a
// second data frame at several instants after the first frame's,
// bypassing the channel, as if a member's frame landed right behind it.
// The nRF2401 has one TX FIFO: an ack owed while the radio still sends
// the first (its turnaround, clock-in or burst) must be dropped and
// counted, not loaded onto the busy radio; one owed after the first has
// flown flies. The speculated run must agree with the callbacks' on
// both schedulers.
func TestSecondAckInWindowDropped(t *testing.T) {
	second := hoEntry{"second data", true, func(r *hoRig, n *hoNode) {
		r.bs.onFrame(packet.Frame{Dest: r.bs.cfg.Plan.BSData, Payload: make([]byte, 18)})
	}}
	for _, kern := range []struct {
		name string
		new  func(int64) *sim.Kernel
	}{{"wheel", sim.NewKernel}, {"heap", sim.NewHeapKernel}} {
		_, data := hoWindows(kern.new)
		if data == 0 {
			t.Fatalf("%s: no data window found", kern.name)
		}
		for _, c := range []struct {
			after   sim.Time
			dropped int
		}{{0, 1}, {100 * sim.Microsecond, 1}, {300 * sim.Microsecond, 1}, {600 * sim.Microsecond, 0}} {
			want, _, _ := hoRun(kern.new, true, second, data+c.after)
			got, _, _ := hoRun(kern.new, false, second, data+c.after)
			if got != want {
				t.Errorf("%s +%v: speculated run differs from the callbacks':\n%s", kern.name, c.after, firstDiff(got, want))
			}
			if tag := fmt.Sprintf("AcksDropped:%d}", c.dropped); !strings.Contains(want, tag) {
				t.Errorf("%s +%v: base station stats lack %s", kern.name, c.after, tag)
			}
		}
	}
}

// firstDiff shows the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
