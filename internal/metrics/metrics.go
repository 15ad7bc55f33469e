// Package metrics is the framework's structured observability layer: it
// records typed simulation events (the protocol timeline of the paper's
// Figures 2 and 3), maintains per-(node, kind) counters that survive the
// event ring limit, and aggregates latency histograms (slot wait,
// TX-to-ACK, rejoin time) with fixed deterministic bucket boundaries.
//
// One Recorder belongs to one simulation run. A run executes on a single
// goroutine (the kernel's), so the recorder needs no locking, and every
// metric value derives only from the run's (Config, Seed) pair — never
// from wall-clock time or worker scheduling. That is the determinism
// contract the parallel runner relies on: equal configs produce
// deep-equal snapshots at any -workers count.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Kind classifies a recorded event. It indexes the recorder's counter
// arrays; its String name is what every output prints (timeline lines,
// "event.<kind>" counters, Chrome trace events).
//
//lint:exhaustive
type Kind uint8

// The event kinds the framework emits.
const (
	KindBeaconTx   Kind = iota // base station sent a beacon (SB slot)
	KindBeaconRx               // node received a beacon (RB in the figures)
	KindSSRTx                  // node sent a slot request (SSRi)
	KindSlotGrant              // base station assigned a slot (Si created)
	KindSlotStart              // a node's data slot began
	KindDataTx                 // node transmitted a data frame
	KindDataRx                 // base station accepted a data frame
	KindAckRx                  // node received the acknowledgement
	KindAckMissed              // ack window elapsed with no ack
	KindCollision              // a frame was corrupted by overlap
	KindCRCDrop                // radio discarded a frame on CRC
	KindAddrFilter             // radio discarded an overheard frame
	KindCycleGrow              // dynamic TDMA extended its cycle
	KindJoined                 // node completed the join handshake
	KindBeat                   // Rpeak application detected a beat

	// Fault-injection events (internal/fault).
	KindCrash       // node lost power (fault injection)
	KindReboot      // node cold-booted after a crash
	KindSlotReclaim // base station freed a silent node's slot
	KindLinkDown    // a path entered a blackout window
	KindLinkUp      // a blacked-out path was restored
	KindJamOn       // external interference burst began
	KindJamOff      // external interference burst ended

	// Battery-lifecycle events (internal/battery through the node layer).
	KindBrownout    // battery depleted; node crashed for good
	KindDegrade     // node entered a lower-power degradation level
	KindParked      // node settled into beacon-only mode (no slot)
	KindSlotSkip    // duty-cycle stretch slept through a data slot
	KindSlotRelease // node handed its slot back to the base station
	KindDataDropped // frame discarded after retry exhaustion
)

// kinds is the number of Kind constants: KindDataDropped is the last.
const kinds = int(KindDataDropped) + 1

var kindNames = map[Kind]string{
	KindBeaconTx:    "beacon-tx",
	KindBeaconRx:    "beacon-rx",
	KindSSRTx:       "ssr-tx",
	KindSlotGrant:   "slot-grant",
	KindSlotStart:   "slot-start",
	KindDataTx:      "data-tx",
	KindDataRx:      "data-rx",
	KindAckRx:       "ack-rx",
	KindAckMissed:   "ack-missed",
	KindCollision:   "collision",
	KindCRCDrop:     "crc-drop",
	KindAddrFilter:  "addr-filter",
	KindCycleGrow:   "cycle-grow",
	KindJoined:      "joined",
	KindBeat:        "beat",
	KindCrash:       "crash",
	KindReboot:      "reboot",
	KindSlotReclaim: "slot-reclaim",
	KindLinkDown:    "link-down",
	KindLinkUp:      "link-up",
	KindJamOn:       "jam-on",
	KindJamOff:      "jam-off",
	KindBrownout:    "brownout",
	KindDegrade:     "degrade",
	KindParked:      "parked",
	KindSlotSkip:    "slot-skip",
	KindSlotRelease: "slot-release",
	KindDataDropped: "data-dropped",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Hist names a latency histogram. The MAC and node layers observe these
// through their tracer; the snapshot reports one histogram per (node,
// hist) pair under the hist's String name.
//
//lint:exhaustive
type Hist uint8

const (
	// HistSlotWait is the queueing delay from Send() to the start of the
	// transmitting burst — TDMA's latency cost for collision-free
	// delivery.
	HistSlotWait Hist = iota
	// HistTxToAck is the span from the end of a data burst to the
	// acknowledgement's arrival (the turnaround the base station's
	// fast-path ack is designed to minimise).
	HistTxToAck
	// HistRejoin is the span from losing a slot (missed-beacon resync,
	// reclaim, crash/reboot) to holding one again.
	HistRejoin
	// HistDegraded is the residency time of each completed stay in a
	// degraded battery level (stretch, downshift, beacon-only) —
	// how long the graceful-degradation ladder holds a node at each rung.
	HistDegraded
)

// hists is the number of Hist constants: HistDegraded is the last.
const hists = int(HistDegraded) + 1

var histNames = map[Hist]string{
	HistSlotWait: "slot-wait",
	HistTxToAck:  "tx-to-ack",
	HistRejoin:   "rejoin-time",
	HistDegraded: "degraded-time",
}

// String names the histogram.
func (h Hist) String() string {
	if s, ok := histNames[h]; ok {
		return s
	}
	return fmt.Sprintf("hist(%d)", uint8(h))
}

// NodeID is a recorder's dense index for one node name. A component
// resolves its ID once, with Recorder.ID, and records under it, so a
// per-event counter bump indexes an array instead of hashing a name.
type NodeID int

// Event is one recorded occurrence.
type Event struct {
	At     sim.Time
	Node   string // "bs" or the sensor node name
	Kind   Kind
	Detail string
}

// String renders the event as one timeline line.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%10.3fms  %-6s %s", e.At.Milliseconds(), e.Node, e.Kind)
	}
	return fmt.Sprintf("%10.3fms  %-6s %-12s %s", e.At.Milliseconds(), e.Node, e.Kind, e.Detail)
}

// Recorder accumulates events, counters and histograms for one run. A
// nil *Recorder is valid and drops everything, so components can
// instrument unconditionally.
type Recorder struct {
	events []Event
	limit  int // NoRing: keep no events
	// offered counts every event recorded, kept or not; dropped counts
	// those a full ring discarded. Counters and histograms are NOT
	// subject to the ring: they stay exact even when the event log
	// overflows or is off.
	offered uint64
	dropped uint64
	// nodes[id] holds the name and statistics behind NodeID id, and ids
	// inverts the names. IDs are handed out densely in first-use order;
	// names come back only at the edges (Events, CounterRows, HistRows).
	nodes []nodeStats
	ids   map[string]NodeID
}

// nodeStats is one node's name, its event counters indexed by Kind and
// its histograms indexed by Hist. A histogram stays nil until its first
// sample, and empty (N == 0) after a ResetDerived until its next one.
type nodeStats struct {
	name   string
	counts [kinds]uint64
	hists  [hists]*Histogram
}

// NoRing is the NewRecorder limit that keeps no event log at all: the
// counters, histograms and Recorded stay exact, Events is empty and
// Dropped stays 0. Runs that never read the timeline use it, so a
// steady-state event costs a counter increment, not a retained Event
// and its formatted detail.
const NoRing = -1

// NewRecorder creates a recorder that keeps at most limit events
// (0 = unlimited, NoRing = none). Counters and histograms are never
// limited.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit, ids: make(map[string]NodeID), nodes: make([]nodeStats, 0, initialNodes)}
}

// initialNodes is the node-table capacity a recorder starts with: a
// base station, five sensors and the fault injector's channel
// pseudo-node fit without growing it.
const initialNodes = 8

// ID returns the NodeID recording under node, assigning the next dense
// ID on the name's first use. A nil recorder returns 0, which every
// recording call on it ignores.
func (r *Recorder) ID(node string) NodeID {
	if r == nil {
		return 0
	}
	if id, ok := r.ids[node]; ok {
		return id
	}
	id := NodeID(len(r.nodes))
	r.ids[node] = id
	r.nodes = append(r.nodes, nodeStats{name: node})
	return id
}

// Record appends an event under a node name; see RecordID.
func (r *Recorder) Record(at sim.Time, node string, kind Kind, detail string) {
	r.RecordID(at, r.ID(node), kind, detail)
}

// RecordID appends an event and bumps its (node, kind) counter. Safe on
// a nil receiver. When the ring limit is hit the event itself is
// dropped (oldest events are the protocol-establishing ones worth
// keeping) but the drop is counted and the counters stay exact.
func (r *Recorder) RecordID(at sim.Time, node NodeID, kind Kind, detail string) {
	if r == nil {
		return
	}
	if r.count(node, kind) {
		r.events = append(r.events, Event{At: at, Node: r.nodes[node].name, Kind: kind, Detail: detail})
	}
}

// count bumps the (node, kind) counter for one offered event and reports
// whether the ring keeps it, counting the drop when a full ring cannot.
//
//hot:path
func (r *Recorder) count(node NodeID, kind Kind) bool {
	r.offered++
	r.nodes[node].counts[kind]++
	switch {
	case r.limit == NoRing:
		return false
	case r.limit > 0 && len(r.events) >= r.limit:
		r.dropped++
		return false
	}
	return true
}

// Record1 records an event whose detail is format applied to a. The
// argument stays unboxed and the detail unformatted unless the ring
// keeps the event, so a run without a ring pays only the counter.
func Record1[A any](r *Recorder, at sim.Time, node NodeID, kind Kind, format string, a A) {
	Record3(r, at, node, kind, format, a, noArg{}, noArg{})
}

// Record2 is Record1 with two arguments.
func Record2[A, B any](r *Recorder, at sim.Time, node NodeID, kind Kind, format string, a A, b B) {
	Record3(r, at, node, kind, format, a, b, noArg{})
}

// Record3 is Record1 with three arguments.
//
//lint:allow hotalloc the detail is formatted only for an event the opt-in ring keeps
func Record3[A, B, C any](r *Recorder, at sim.Time, node NodeID, kind Kind, format string, a A, b B, c C) {
	if r == nil || !r.count(node, kind) {
		return
	}
	args := []any{a, b, c}
	for len(args) > 0 {
		if _, unused := args[len(args)-1].(noArg); !unused {
			break
		}
		args = args[:len(args)-1]
	}
	r.events = append(r.events, Event{At: at, Node: r.nodes[node].name, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// noArg fills the argument slots Record1 and Record2 leave unused.
type noArg struct{}

// Observe adds one latency sample to the (node, h) histogram. Safe on a
// nil receiver. Negative samples are clamped to zero (they cannot arise
// from a causally ordered run; clamping keeps arbitrary inputs from
// corrupting bucket math).
func (r *Recorder) Observe(node NodeID, h Hist, v sim.Time) {
	if r == nil {
		return
	}
	p := &r.nodes[node].hists[h]
	if *p == nil {
		*p = NewHistogram()
	}
	(*p).Observe(v)
}

// ResetDerived zeroes the counters and histograms, so a measurement
// window excludes the join transient — mirroring the components'
// ResetAccounting. Histograms are emptied in place, and every output
// skips an empty one. The event log (and its dropped count) is kept:
// the timeline's whole point is showing the join sequence. Node IDs stay
// valid.
func (r *Recorder) ResetDerived() {
	if r == nil {
		return
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		n.counts = [kinds]uint64{}
		for _, h := range n.hists {
			if h != nil {
				h.reset()
			}
		}
	}
}

// Events returns the recorded events in record order (the ring may have
// dropped the newest ones; see Dropped).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Dropped reports how many events the ring limit discarded.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Recorded reports the total number of events offered to the recorder,
// including the dropped ones and, without a ring, every event counted.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.offered
}

// Filter returns the retained events matching kind, in order.
func (r *Recorder) Filter(kind Kind) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, e := range r.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Count reports how many events of the given kind were recorded, summed
// over all nodes. Unlike Filter, the count is exact even when the ring
// limit dropped events.
func (r *Recorder) Count(kind Kind) int {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.nodes {
		n += r.nodes[i].counts[kind]
	}
	return int(n)
}

// CounterRows snapshots every non-zero (node, kind) counter, sorted by
// node then kind name so the output is deterministic.
func (r *Recorder) CounterRows() []CounterRow {
	if r == nil {
		return nil
	}
	rows := []CounterRow{}
	for i := range r.nodes {
		n := &r.nodes[i]
		for k, v := range n.counts {
			if v > 0 {
				rows = append(rows, CounterRow{Node: n.name, Name: counterNames[k], Value: v})
			}
		}
	}
	byNodeName(rows, func(c CounterRow) (string, string) { return c.Node, c.Name })
	return rows
}

// counterNames[k] is the counter row name of Kind k, "event.<kind>".
var counterNames = func() (out [kinds]string) {
	for k := range out {
		out[k] = "event." + Kind(k).String()
	}
	return out
}()

// HistRows snapshots every histogram with a sample, sorted by node then
// name.
func (r *Recorder) HistRows() []HistRow {
	if r == nil {
		return nil
	}
	rows := []HistRow{}
	for i := range r.nodes {
		n := &r.nodes[i]
		for k, h := range n.hists {
			if h != nil && h.N > 0 {
				rows = append(rows, h.Row(n.name, Hist(k).String()))
			}
		}
	}
	byNodeName(rows, func(h HistRow) (string, string) { return h.Node, h.Name })
	return rows
}

// byNodeName sorts rows by their (node, name) key.
func byNodeName[T any](rows []T, key func(T) (string, string)) {
	sort.Slice(rows, func(i, j int) bool {
		ni, ki := key(rows[i])
		nj, kj := key(rows[j])
		if ni != nj {
			return ni < nj
		}
		return ki < kj
	})
}

// Render formats the whole timeline as text. When the ring limit dropped
// events, a trailer line says how many, so a truncated timeline can
// never pass for a complete one.
func (r *Recorder) Render() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, "... %d further event(s) dropped at the %d-event limit\n", d, r.limit)
	}
	return b.String()
}
