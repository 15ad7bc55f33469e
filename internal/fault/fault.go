// Package fault is the deterministic fault-injection subsystem: node
// crashes with optional reboot, link blackout windows and external
// interference bursts, all scheduled through the simulation kernel so a
// faulted run is exactly as reproducible as a clean one. Health-care
// BANs live on moving bodies with depleting batteries — nodes brown out,
// posture shadows links, and neighbouring equipment jams the ISM band —
// so the interesting engineering questions are about recovery: how long
// until a rebooted node holds a slot again, what delivery looked like
// through the outage, and whether the base station's schedule degrades
// gracefully. The Injector answers them per fault.
package fault

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/channel"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Kind names a fault type.
//
//lint:exhaustive
type Kind string

const (
	// KindCrash powers a node off at an instant, losing all MAC, radio
	// and application state; an optional reboot cold-starts it later.
	KindCrash Kind = "crash"
	// KindBlackout shadows one directed link completely for a window
	// (body posture, walking around a corner).
	KindBlackout Kind = "blackout"
	// KindInterference corrupts every frame on the air for a window (an
	// external emitter saturating the 2.4 GHz band).
	KindInterference Kind = "interference"
	// KindBrownout marks an emergent battery-depletion crash: the node's
	// live battery (internal/battery) drained until the terminal voltage
	// fell through the brownout threshold. It is never scheduled —
	// ValidateSchedule rejects it in user fault lists — but appears in
	// Outcomes alongside the injected faults.
	KindBrownout Kind = "brownout"
)

// Fault describes one scheduled fault. The flat shape keeps the JSON
// scenario schema simple: which fields are meaningful depends on Kind.
type Fault struct {
	Kind Kind `json:"kind"`
	// Node is the crash target (crash only).
	Node uint8 `json:"node,omitempty"`
	// From and To name the shadowed directed path (blackout only):
	// "bs" or "node<N>".
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// At is the fault instant (window start), from simulation start.
	At sim.Time `json:"at"`
	// Until ends a blackout/interference window.
	Until sim.Time `json:"until,omitempty"`
	// RebootAfter is the crash outage length; 0 means the node never
	// comes back.
	RebootAfter sim.Time `json:"reboot_after,omitempty"`
}

// String renders the fault for error messages and logs.
func (f Fault) String() string {
	switch f.Kind {
	case KindCrash:
		if f.RebootAfter > 0 {
			return fmt.Sprintf("crash node%d@%v+%v", f.Node, f.At, f.RebootAfter)
		}
		return fmt.Sprintf("crash node%d@%v", f.Node, f.At)
	case KindBlackout:
		return fmt.Sprintf("blackout %s>%s@%v-%v", f.From, f.To, f.At, f.Until)
	case KindInterference:
		return fmt.Sprintf("interference@%v-%v", f.At, f.Until)
	case KindBrownout:
		return fmt.Sprintf("brownout node%d@%v", f.Node, f.At)
	default:
		return fmt.Sprintf("fault(%q)", string(f.Kind))
	}
}

var endpointRe = regexp.MustCompile(`^node([0-9]+)$`)

// validEndpoint reports whether name addresses the base station or one
// of the first n nodes.
func validEndpoint(name string, n int) bool {
	if name == "bs" {
		return true
	}
	m := endpointRe.FindStringSubmatch(name)
	if m == nil {
		return false
	}
	id, err := strconv.Atoi(m[1])
	return err == nil && id >= 1 && id <= n
}

// ValidateSchedule rejects fault schedules that cannot be executed:
// windows outside [0, total), references to nodes the scenario does not
// place, and overlapping crash intervals on one node (a node cannot
// crash while already down). nodes is the scenario's node count (IDs
// 1..nodes); total is the full simulated span including warmup.
func ValidateSchedule(faults []Fault, nodes int, total sim.Time) error {
	type span struct {
		from, to sim.Time // to == 0 means open-ended (never reboots)
	}
	crashes := make(map[uint8][]span)
	for i, f := range faults {
		if f.At < 0 || f.At >= total {
			return fmt.Errorf("fault %d (%v): at=%v outside the simulated span [0, %v)", i, f, f.At, total)
		}
		switch f.Kind {
		case KindCrash:
			if int(f.Node) < 1 || int(f.Node) > nodes {
				return fmt.Errorf("fault %d (%v): node %d not in scenario (1..%d)", i, f, f.Node, nodes)
			}
			if f.RebootAfter < 0 {
				return fmt.Errorf("fault %d (%v): negative reboot_after", i, f)
			}
			end := sim.Time(0)
			if f.RebootAfter > 0 {
				end = f.At + f.RebootAfter
				if end > total {
					return fmt.Errorf("fault %d (%v): reboot at %v is past the simulated span %v", i, f, end, total)
				}
			}
			crashes[f.Node] = append(crashes[f.Node], span{from: f.At, to: end})
		case KindBlackout:
			if !validEndpoint(f.From, nodes) {
				return fmt.Errorf("fault %d (%v): unknown endpoint %q", i, f, f.From)
			}
			if !validEndpoint(f.To, nodes) {
				return fmt.Errorf("fault %d (%v): unknown endpoint %q", i, f, f.To)
			}
			if f.From == f.To {
				return fmt.Errorf("fault %d (%v): blackout path endpoints are identical", i, f)
			}
			if f.Until <= f.At {
				return fmt.Errorf("fault %d (%v): window end %v not after start %v", i, f, f.Until, f.At)
			}
			if f.Until > total {
				return fmt.Errorf("fault %d (%v): window end %v past the simulated span %v", i, f, f.Until, total)
			}
		case KindInterference:
			if f.Until <= f.At {
				return fmt.Errorf("fault %d (%v): window end %v not after start %v", i, f, f.Until, f.At)
			}
			if f.Until > total {
				return fmt.Errorf("fault %d (%v): window end %v past the simulated span %v", i, f, f.Until, total)
			}
		case KindBrownout:
			return fmt.Errorf("fault %d (%v): brownouts are emergent (battery depletion), not schedulable — configure a battery instead", i, f)
		default:
			return fmt.Errorf("fault %d: unknown kind %q", i, f.Kind)
		}
	}
	// A second crash while a node is still down is meaningless; the
	// schedule is a user error, not a composable overlay.
	for node, spans := range crashes {
		sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
		for i := 1; i < len(spans); i++ {
			prev := spans[i-1]
			if prev.to == 0 || spans[i].from < prev.to {
				return fmt.Errorf("node%d: crash at %v overlaps the outage starting at %v", node, spans[i].from, prev.from)
			}
		}
	}
	return nil
}

// NodeHooks is the injector's view of one sensor node.
type NodeHooks struct {
	// Crash and Reboot drive the node's power lifecycle.
	Crash  func()
	Reboot func()
	// OnJoined registers a callback fired on every completed join.
	OnJoined func(fn func())
	// Stats snapshots the node MAC's counters.
	Stats func() mac.Stats
}

// Outcome reports what one scheduled fault did to the network.
type Outcome struct {
	Fault Fault `json:"fault"`
	// RebootedAt is the cold-boot instant (crash with reboot only).
	RebootedAt sim.Time `json:"rebooted_at,omitempty"`
	// Rejoined reports whether the crashed node held a slot again before
	// the run ended.
	Rejoined bool `json:"rejoined,omitempty"`
	// RejoinedAt is the instant the rebooted node rejoined, and
	// TimeToRejoin the span from reboot to rejoin.
	RejoinedAt   sim.Time `json:"rejoined_at,omitempty"`
	TimeToRejoin sim.Time `json:"time_to_rejoin,omitempty"`
	// SentDuring and AckedDuring count data frames sent/acknowledged
	// inside the fault window (for a crash: from the crash until the
	// rejoin or the end of the run) by the affected node — or by the
	// whole network for an interference burst.
	SentDuring  uint64 `json:"sent_during"`
	AckedDuring uint64 `json:"acked_during"`
}

// DeliveryDuring reports the in-window delivery ratio (1 when nothing
// was sent: no frame was lost).
func (o Outcome) DeliveryDuring() float64 {
	if o.SentDuring == 0 {
		return 1
	}
	return float64(o.AckedDuring) / float64(o.SentDuring)
}

// satSub subtracts saturating at zero: a fault window that straddles the
// warmup-end accounting reset sees counters smaller than its snapshot.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// window tracks one open fault window's starting snapshot.
type window struct {
	idx   int
	node  uint8 // 0 = whole network (interference)
	sent  uint64
	acked uint64
}

// Injector schedules a validated fault list onto the kernel and collects
// per-fault outcomes. Build it with New, register every sensor with
// AddNode, then Install the schedule before the run starts.
type Injector struct {
	k      *sim.Kernel
	ch     *channel.Channel
	tracer *metrics.Recorder
	// channelTrace and nodeTrace are the tracer IDs the injector records
	// under: the "channel" pseudo-node and each node's "node<N>".
	channelTrace metrics.NodeID
	nodeTrace    map[uint8]metrics.NodeID

	nodes map[uint8]NodeHooks
	ids   []uint8 // sorted, for deterministic aggregate snapshots

	outcomes []Outcome
	// pendingRejoin maps a node to the outcome indices waiting for its
	// next join (at most one in a valid schedule, but the structure
	// tolerates sequential crash/reboot cycles).
	pendingRejoin map[uint8][]int
	// openCrash maps a node to its open crash window (closed on rejoin
	// or at Finalize).
	openCrash map[uint8]*window
	hooked    map[uint8]bool
}

// New creates an injector over the run's kernel, medium and tracer.
func New(k *sim.Kernel, ch *channel.Channel, tracer *metrics.Recorder) *Injector {
	return &Injector{
		k:             k,
		ch:            ch,
		tracer:        tracer,
		channelTrace:  tracer.ID("channel"),
		nodeTrace:     make(map[uint8]metrics.NodeID),
		nodes:         make(map[uint8]NodeHooks),
		pendingRejoin: make(map[uint8][]int),
		openCrash:     make(map[uint8]*window),
		hooked:        make(map[uint8]bool),
	}
}

// AddNode registers a sensor node's lifecycle hooks under its ID.
func (inj *Injector) AddNode(id uint8, h NodeHooks) {
	if _, dup := inj.nodes[id]; dup {
		panic(fmt.Sprintf("fault: duplicate node %d", id))
	}
	inj.nodes[id] = h
	inj.nodeTrace[id] = inj.tracer.ID("node" + strconv.Itoa(int(id)))
	inj.ids = append(inj.ids, id)
	sort.Slice(inj.ids, func(i, j int) bool { return inj.ids[i] < inj.ids[j] })
}

// aggregate sums data counters across every registered node.
func (inj *Injector) aggregate() (sent, acked uint64) {
	for _, id := range inj.ids {
		s := inj.nodes[id].Stats()
		sent += s.DataSent
		acked += s.DataAcked
	}
	return sent, acked
}

// Install validates nothing (run ValidateSchedule first) and schedules
// every fault onto the kernel. Call once, before the run starts.
func (inj *Injector) Install(faults []Fault) {
	inj.outcomes = make([]Outcome, len(faults))
	for i, f := range faults {
		inj.outcomes[i] = Outcome{Fault: f}
		switch f.Kind {
		case KindCrash:
			inj.installCrash(i, f)
		case KindBlackout:
			inj.installBlackout(i, f)
		case KindInterference:
			inj.installInterference(i, f)
		case KindBrownout:
			// Emergent only: ValidateSchedule rejects brownout entries,
			// so one arriving here means the schedule bypassed
			// validation — fail loudly instead of silently ignoring it.
			panic("fault: brownout faults are emergent, not schedulable; run ValidateSchedule")
		}
	}
}

func (inj *Injector) installCrash(idx int, f Fault) {
	h, ok := inj.nodes[f.Node]
	if !ok {
		panic(fmt.Sprintf("fault: crash targets unregistered node %d", f.Node))
	}
	// One rejoin watcher per node, however many crashes it suffers.
	if !inj.hooked[f.Node] {
		inj.hooked[f.Node] = true
		node := f.Node
		h.OnJoined(func() { inj.noteRejoin(node) })
	}
	inj.k.ScheduleAt(f.At, func(*sim.Kernel) {
		s := h.Stats()
		inj.openCrash[f.Node] = &window{idx: idx, node: f.Node, sent: s.DataSent, acked: s.DataAcked}
		h.Crash() // the MAC traces the crash event itself
	})
	if f.RebootAfter > 0 {
		node, trace := f.Node, inj.nodeTrace[f.Node]
		inj.k.ScheduleAt(f.At+f.RebootAfter, func(*sim.Kernel) {
			inj.outcomes[idx].RebootedAt = inj.k.Now()
			inj.pendingRejoin[node] = append(inj.pendingRejoin[node], idx)
			metrics.Record1(inj.tracer, inj.k.Now(), trace, metrics.KindReboot,
				"outage=%v", f.RebootAfter)
			h.Reboot()
		})
	}
}

// noteRejoin resolves the oldest pending rejoin wait for the node and
// closes its open crash window.
func (inj *Injector) noteRejoin(node uint8) {
	pend := inj.pendingRejoin[node]
	if len(pend) == 0 {
		return // an ordinary (re)join, not crash recovery
	}
	idx := pend[0]
	inj.pendingRejoin[node] = pend[1:]
	o := &inj.outcomes[idx]
	o.Rejoined = true
	o.RejoinedAt = inj.k.Now()
	o.TimeToRejoin = o.RejoinedAt - o.RebootedAt
	if w := inj.openCrash[node]; w != nil && w.idx == idx {
		s := inj.nodes[node].Stats()
		o.SentDuring = satSub(s.DataSent, w.sent)
		o.AckedDuring = satSub(s.DataAcked, w.acked)
		delete(inj.openCrash, node)
	}
}

func (inj *Injector) installBlackout(idx int, f Fault) {
	// Track the sensor endpoint of the path: its delivery suffers whether
	// the shadowed direction carries its data or the returning acks.
	var tracked uint8
	var h NodeHooks
	haveNode := false
	for _, name := range []string{f.From, f.To} {
		if m := endpointRe.FindStringSubmatch(name); m != nil {
			id, _ := strconv.Atoi(m[1])
			if hooks, ok := inj.nodes[uint8(id)]; ok {
				tracked, h, haveNode = uint8(id), hooks, true
				break
			}
		}
	}
	var w window
	inj.k.ScheduleAt(f.At, func(*sim.Kernel) {
		if haveNode {
			s := h.Stats()
			w = window{idx: idx, node: tracked, sent: s.DataSent, acked: s.DataAcked}
		}
		inj.ch.SetBlackout(f.From, f.To, true)
		metrics.Record2(inj.tracer, inj.k.Now(), inj.channelTrace, metrics.KindLinkDown, "%s>%s", f.From, f.To)
	})
	inj.k.ScheduleAt(f.Until, func(*sim.Kernel) {
		inj.ch.SetBlackout(f.From, f.To, false)
		metrics.Record2(inj.tracer, inj.k.Now(), inj.channelTrace, metrics.KindLinkUp, "%s>%s", f.From, f.To)
		if haveNode {
			s := h.Stats()
			inj.outcomes[idx].SentDuring = satSub(s.DataSent, w.sent)
			inj.outcomes[idx].AckedDuring = satSub(s.DataAcked, w.acked)
		}
	})
}

func (inj *Injector) installInterference(idx int, f Fault) {
	var sent0, acked0 uint64
	inj.k.ScheduleAt(f.At, func(*sim.Kernel) {
		sent0, acked0 = inj.aggregate()
		inj.ch.SetJamming(true)
		inj.tracer.RecordID(inj.k.Now(), inj.channelTrace, metrics.KindJamOn, "")
	})
	inj.k.ScheduleAt(f.Until, func(*sim.Kernel) {
		inj.ch.SetJamming(false)
		inj.tracer.RecordID(inj.k.Now(), inj.channelTrace, metrics.KindJamOff, "")
		sent, acked := inj.aggregate()
		inj.outcomes[idx].SentDuring = satSub(sent, sent0)
		inj.outcomes[idx].AckedDuring = satSub(acked, acked0)
	})
}

// NoteBrownout records an emergent battery-depletion crash as a fault
// outcome, so brownouts show up in the resilience report alongside the
// scheduled faults. The cell is empty, so the node never reboots and no
// in-window delivery is tracked — the outcome carries only the instant.
func (inj *Injector) NoteBrownout(node uint8) {
	inj.outcomes = append(inj.outcomes, Outcome{
		Fault: Fault{Kind: KindBrownout, Node: node, At: inj.k.Now()},
	})
}

// Finalize closes crash windows still open at the end of the run (the
// node never rejoined, or never rebooted at all) and returns the
// outcomes in schedule order.
func (inj *Injector) Finalize() []Outcome {
	for _, id := range inj.ids {
		w := inj.openCrash[id]
		if w == nil {
			continue
		}
		s := inj.nodes[id].Stats()
		inj.outcomes[w.idx].SentDuring = satSub(s.DataSent, w.sent)
		inj.outcomes[w.idx].AckedDuring = satSub(s.DataAcked, w.acked)
		delete(inj.openCrash, id)
	}
	return append([]Outcome(nil), inj.outcomes...)
}

// Outcomes returns the outcomes collected so far, in schedule order.
func (inj *Injector) Outcomes() []Outcome {
	return append([]Outcome(nil), inj.outcomes...)
}
