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

// Kind classifies a recorded event.
//
//lint:exhaustive
type Kind string

// The event kinds the framework emits.
const (
	KindBeaconTx   Kind = "beacon-tx"   // base station sent a beacon (SB slot)
	KindBeaconRx   Kind = "beacon-rx"   // node received a beacon (RB in the figures)
	KindSSRTx      Kind = "ssr-tx"      // node sent a slot request (SSRi)
	KindSlotGrant  Kind = "slot-grant"  // base station assigned a slot (Si created)
	KindSlotStart  Kind = "slot-start"  // a node's data slot began
	KindDataTx     Kind = "data-tx"     // node transmitted a data frame
	KindDataRx     Kind = "data-rx"     // base station accepted a data frame
	KindAckRx      Kind = "ack-rx"      // node received the acknowledgement
	KindAckMissed  Kind = "ack-missed"  // ack window elapsed with no ack
	KindCollision  Kind = "collision"   // a frame was corrupted by overlap
	KindCRCDrop    Kind = "crc-drop"    // radio discarded a frame on CRC
	KindAddrFilter Kind = "addr-filter" // radio discarded an overheard frame
	KindCycleGrow  Kind = "cycle-grow"  // dynamic TDMA extended its cycle
	KindJoined     Kind = "joined"      // node completed the join handshake
	KindBeat       Kind = "beat"        // Rpeak application detected a beat

	// Fault-injection events (internal/fault).
	KindCrash       Kind = "crash"        // node lost power (fault injection)
	KindReboot      Kind = "reboot"       // node cold-booted after a crash
	KindSlotReclaim Kind = "slot-reclaim" // base station freed a silent node's slot
	KindLinkDown    Kind = "link-down"    // a path entered a blackout window
	KindLinkUp      Kind = "link-up"      // a blacked-out path was restored
	KindJamOn       Kind = "jam-on"       // external interference burst began
	KindJamOff      Kind = "jam-off"      // external interference burst ended

	// Battery-lifecycle events (internal/battery through the node layer).
	KindBrownout    Kind = "brownout"     // battery depleted; node crashed for good
	KindDegrade     Kind = "degrade"      // node entered a lower-power degradation level
	KindParked      Kind = "parked"       // node settled into beacon-only mode (no slot)
	KindSlotSkip    Kind = "slot-skip"    // duty-cycle stretch slept through a data slot
	KindSlotRelease Kind = "slot-release" // node handed its slot back to the base station
	KindDataDropped Kind = "data-dropped" // frame discarded after retry exhaustion
)

// Histogram metric names. The MAC layer observes these through its
// tracer; the snapshot reports one histogram per (node, name) pair.
const (
	// HistSlotWait is the queueing delay from Send() to the start of the
	// transmitting burst — TDMA's latency cost for collision-free
	// delivery.
	HistSlotWait = "slot-wait"
	// HistTxToAck is the span from the end of a data burst to the
	// acknowledgement's arrival (the turnaround the base station's
	// fast-path ack is designed to minimise).
	HistTxToAck = "tx-to-ack"
	// HistRejoin is the span from losing a slot (missed-beacon resync,
	// reclaim, crash/reboot) to holding one again.
	HistRejoin = "rejoin-time"
	// HistDegraded is the residency time of each completed stay in a
	// degraded battery level (stretch, downshift, beacon-only) —
	// how long the graceful-degradation ladder holds a node at each rung.
	HistDegraded = "degraded-time"
)

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

// counterKey identifies one (node, kind) event counter.
type counterKey struct {
	node string
	kind Kind
}

// histKey identifies one (node, metric) histogram.
type histKey struct {
	node string
	name string
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
	counts  map[counterKey]uint64
	hists   map[histKey]*Histogram
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
	return &Recorder{
		limit:  limit,
		counts: make(map[counterKey]uint64),
		hists:  make(map[histKey]*Histogram),
	}
}

// Record appends an event and bumps its (node, kind) counter. Safe on a
// nil receiver. When the ring limit is hit the event itself is dropped
// (oldest events are the protocol-establishing ones worth keeping) but
// the drop is counted and the counters stay exact.
func (r *Recorder) Record(at sim.Time, node string, kind Kind, detail string) {
	if r == nil {
		return
	}
	if r.count(node, kind) {
		r.events = append(r.events, Event{At: at, Node: node, Kind: kind, Detail: detail})
	}
}

// count bumps the (node, kind) counter for one offered event and reports
// whether the ring keeps it, counting the drop when a full ring cannot.
func (r *Recorder) count(node string, kind Kind) bool {
	r.offered++
	r.counts[counterKey{node, kind}]++
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
func Record1[A any](r *Recorder, at sim.Time, node string, kind Kind, format string, a A) {
	Record3(r, at, node, kind, format, a, noArg{}, noArg{})
}

// Record2 is Record1 with two arguments.
func Record2[A, B any](r *Recorder, at sim.Time, node string, kind Kind, format string, a A, b B) {
	Record3(r, at, node, kind, format, a, b, noArg{})
}

// Record3 is Record1 with three arguments.
//
//lint:allow hotalloc the detail is formatted only for an event the opt-in ring keeps
func Record3[A, B, C any](r *Recorder, at sim.Time, node string, kind Kind, format string, a A, b B, c C) {
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
	r.events = append(r.events, Event{At: at, Node: node, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// noArg fills the argument slots Record1 and Record2 leave unused.
type noArg struct{}

// Observe adds one latency sample to the (node, name) histogram. Safe on
// a nil receiver. Negative samples are clamped to zero (they cannot
// arise from a causally ordered run; clamping keeps arbitrary inputs
// from corrupting bucket math).
func (r *Recorder) Observe(node, name string, v sim.Time) {
	if r == nil {
		return
	}
	k := histKey{node, name}
	h := r.hists[k]
	if h == nil {
		h = NewHistogram()
		r.hists[k] = h
	}
	h.Observe(v)
}

// ResetDerived zeroes the counters and histograms, so a measurement
// window excludes the join transient — mirroring the components'
// ResetAccounting. The event log (and its dropped count) is kept: the
// timeline's whole point is showing the join sequence.
func (r *Recorder) ResetDerived() {
	if r == nil {
		return
	}
	r.counts = make(map[counterKey]uint64)
	r.hists = make(map[histKey]*Histogram)
}

// Histogram returns the (node, name) histogram, or nil when no sample
// was observed.
func (r *Recorder) Histogram(node, name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hists[histKey{node, name}]
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

// ByNode returns the retained events attributed to node, in order.
func (r *Recorder) ByNode(node string) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, e := range r.events {
		if e.Node == node {
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
	for k, c := range r.counts {
		if k.kind == kind {
			n += c
		}
	}
	return int(n)
}

// CountBy reports the exact event count for one (node, kind) pair.
func (r *Recorder) CountBy(node string, kind Kind) uint64 {
	if r == nil {
		return 0
	}
	return r.counts[counterKey{node, kind}]
}

// CounterRows snapshots every (node, kind) counter, sorted by node then
// kind so the output is deterministic.
func (r *Recorder) CounterRows() []CounterRow {
	if r == nil {
		return nil
	}
	rows := make([]CounterRow, 0, len(r.counts))
	for k, v := range r.counts {
		rows = append(rows, CounterRow{Node: k.node, Name: "event." + string(k.kind), Value: v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Node != rows[j].Node {
			return rows[i].Node < rows[j].Node
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// HistRows snapshots every histogram, sorted by node then name.
func (r *Recorder) HistRows() []HistRow {
	if r == nil {
		return nil
	}
	rows := make([]HistRow, 0, len(r.hists))
	for k, h := range r.hists {
		rows = append(rows, h.Row(k.node, k.name))
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Node != rows[j].Node {
			return rows[i].Node < rows[j].Node
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
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
