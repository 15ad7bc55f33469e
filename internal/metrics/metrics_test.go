package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecorderCountsSurviveRingLimit(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 10; i++ {
		r.Record(sim.Time(i)*sim.Millisecond, "node1", KindDataTx, "")
	}
	if got := len(r.Events()); got != 3 {
		t.Fatalf("retained %d events, want the 3-event limit", got)
	}
	if got := r.Dropped(); got != 7 {
		t.Fatalf("Dropped = %d, want 7", got)
	}
	if got := r.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
	// The counter keeps exact counts past the ring limit — that is the
	// whole point of keeping counters separate from the event log.
	if got := r.Count(KindDataTx); got != 10 {
		t.Fatalf("Count = %d, want exact 10 despite the ring limit", got)
	}
	if got := counter(r, "node1", KindDataTx); got != 10 {
		t.Fatalf("node1 data-tx counter = %d, want 10", got)
	}
	// The kept events are the oldest: the join sequence end of the run.
	if r.Events()[0].At != 0 || r.Events()[2].At != 2*sim.Millisecond {
		t.Fatalf("ring kept the wrong events: %v", r.Events())
	}
}

func TestRecorderRenderReportsDrops(t *testing.T) {
	r := NewRecorder(1)
	r.Record(0, "bs", KindBeaconTx, "")
	r.Record(sim.Millisecond, "bs", KindBeaconTx, "")
	out := r.Render()
	if !strings.Contains(out, "1 further event(s) dropped at the 1-event limit") {
		t.Fatalf("Render hides the drop:\n%s", out)
	}
	full := NewRecorder(0)
	full.Record(0, "bs", KindBeaconTx, "")
	if strings.Contains(full.Render(), "dropped") {
		t.Fatalf("Render mentions drops on a complete timeline:\n%s", full.Render())
	}
}

func TestRecorderResetDerived(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, "node1", KindJoined, "")
	r.Observe(r.ID("node1"), HistSlotWait, 5*sim.Millisecond)
	r.ResetDerived()
	if got := r.Count(KindJoined); got != 0 {
		t.Fatalf("counter survived ResetDerived: %d", got)
	}
	if rows := r.HistRows(); len(rows) != 0 {
		t.Fatalf("histogram survived ResetDerived: %+v", rows)
	}
	// The event log is the run's timeline and must survive.
	if got := len(r.Events()); got != 1 {
		t.Fatalf("event log lost %d events to ResetDerived", 1-got)
	}
	r.Record(0, "node1", KindDataTx, "")
	if got := r.Count(KindDataTx); got != 1 {
		t.Fatalf("recorder dead after ResetDerived: Count = %d", got)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(0, "n", KindDataTx, "")
	id := r.ID("n")
	Record1(r, 0, id, KindDataTx, "x%d", 1)
	r.Observe(id, HistSlotWait, sim.Millisecond)
	r.ResetDerived()
	if r.Count(KindDataTx) != 0 || r.Events() != nil || r.Render() != "" ||
		r.Dropped() != 0 || r.Recorded() != 0 || r.CounterRows() != nil ||
		r.HistRows() != nil {
		t.Fatal("nil recorder leaked state")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	bounds := HistBounds()
	// Exactly on a boundary lands in that bucket (Counts[i] holds
	// samples <= bounds[i]).
	h.Observe(bounds[0])
	if h.Counts[0] != 1 {
		t.Fatalf("boundary sample missed bucket 0: %v", h.Counts)
	}
	// Just past it lands one bucket up.
	h.Observe(bounds[0] + 1)
	if h.Counts[1] != 1 {
		t.Fatalf("past-boundary sample missed bucket 1: %v", h.Counts)
	}
	// Beyond the ladder lands in the overflow slot.
	h.Observe(bounds[len(bounds)-1] + sim.Second)
	if h.Counts[len(bounds)] != 1 {
		t.Fatalf("overflow sample missed the last slot: %v", h.Counts)
	}
	// Negative clamps to zero instead of corrupting Min/Sum.
	h.Observe(-sim.Second)
	if h.Min != 0 || h.Sum < 0 {
		t.Fatalf("negative sample leaked: min=%v sum=%v", h.Min, h.Sum)
	}
	if h.N != 4 {
		t.Fatalf("N = %d, want 4", h.N)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 99; i++ {
		h.Observe(sim.Millisecond) // ladder bound: exactly 1 ms
	}
	h.Observe(3 * sim.Second)
	if got := h.Quantile(0.5); got != sim.Millisecond {
		t.Fatalf("p50 = %v, want 1ms", got)
	}
	// The 3 s outlier sits in the (2s, 5s] bucket; the conservative
	// estimate is the bucket's upper bound capped at the observed max.
	if got := h.Quantile(1.0); got != 3*sim.Second {
		t.Fatalf("p100 = %v, want the 3s max", got)
	}
	if got := h.Avg(); got != (99*sim.Millisecond+3*sim.Second)/100 {
		t.Fatalf("avg = %v", got)
	}
	empty := NewHistogram()
	if empty.Quantile(0.99) != 0 || empty.Avg() != 0 {
		t.Fatal("empty histogram quantile/avg not zero")
	}
}

func TestHistogramMergeMatchesCombinedStream(t *testing.T) {
	samples := []sim.Time{
		200 * sim.Microsecond, 3 * sim.Millisecond, 40 * sim.Millisecond,
		sim.Second, 7 * sim.Second, 90 * sim.Millisecond,
	}
	whole := NewHistogram()
	a, b := NewHistogram(), NewHistogram()
	for i, s := range samples {
		whole.Observe(s)
		if i%2 == 0 {
			a.Observe(s)
		} else {
			b.Observe(s)
		}
	}
	a.Merge(b)
	if !reflect.DeepEqual(a, whole) {
		t.Fatalf("merge diverged from the combined stream:\n got %+v\nwant %+v", a, whole)
	}
	a.Merge(nil) // must be a no-op
	if !reflect.DeepEqual(a, whole) {
		t.Fatal("nil merge changed the histogram")
	}
}

func TestSnapshotMergeOrderInvariant(t *testing.T) {
	mk := func(node string, v uint64, lat sim.Time) *Snapshot {
		r := NewRecorder(0)
		for i := uint64(0); i < v; i++ {
			r.Record(0, node, KindDataTx, "")
		}
		r.Observe(r.ID(node), HistSlotWait, lat)
		return Assemble(r, nil, nil, []CounterRow{{Node: node, Name: "mac.data-sent", Value: v}}, v)
	}
	a := mk("node1", 3, 5*sim.Millisecond)
	b := mk("node2", 7, 40*sim.Millisecond)
	c := mk("node1", 2, 90*sim.Millisecond) // same keys as a: must sum
	ab := Merge([]*Snapshot{a, b, c, nil})
	ba := Merge([]*Snapshot{nil, c, b, a})
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge order changed the aggregate:\n%+v\nvs\n%+v", ab, ba)
	}
	if got := ab.Counter("node1", "event.data-tx"); got != 5 {
		t.Fatalf("merged counter = %d, want 3+2", got)
	}
	if got := ab.Counter("node1", "mac.data-sent"); got != 5 {
		t.Fatalf("merged extra counter = %d, want 5", got)
	}
	if ab.Points != 3 || ab.KernelEvents != 12 {
		t.Fatalf("points/kernel totals wrong: %d/%d", ab.Points, ab.KernelEvents)
	}
	for _, h := range ab.Hists {
		if h.Node == "node1" && h.Count != 2 {
			t.Fatalf("node1 merged histogram count = %d, want 2", h.Count)
		}
	}
}

func TestSnapshotCSVShape(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, "node1", KindDataTx, "")
	r.Observe(r.ID("node1"), HistTxToAck, 400*sim.Microsecond)
	s := Assemble(r, nil, nil, nil, 1)
	csv := s.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	want := strings.Count(csv, ",") / (len(lines)) // every line same arity
	for _, l := range lines {
		if strings.Count(l, ",") != want {
			t.Fatalf("ragged CSV row %q in:\n%s", l, csv)
		}
	}
	if !strings.HasPrefix(lines[0], "record,node,") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(csv, "counter,node1,,event.data-tx,,,1,") {
		t.Fatalf("counter row missing:\n%s", csv)
	}
	if !strings.Contains(csv, "hist,node1,,tx-to-ack,") {
		t.Fatalf("hist row missing:\n%s", csv)
	}
}

func TestSnapshotWriteFileFormat(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, "node1", KindDataTx, "")
	s := Assemble(r, nil, nil, nil, 1)
	wantJSON, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		want []byte
	}{
		{"m.csv", []byte(s.CSV())},
		{"m.json", wantJSON},
		{"m.out", wantJSON}, // any other suffix writes JSON too
	} {
		path := filepath.Join(dir, tc.name)
		if err := s.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: wrote\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
	if err := s.WriteFile(filepath.Join(dir, "missing", "m.csv")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

// counter reads one (node, kind) counter through CounterRows.
func counter(r *Recorder, node string, kind Kind) uint64 {
	for _, c := range r.CounterRows() {
		if c.Node == node && c.Name == "event."+kind.String() {
			return c.Value
		}
	}
	return 0
}

// TestRowsSortByNameNotID checks that the snapshot rows come out in name
// order whatever order the names were given IDs in, and that a reset
// followed by the same traffic reproduces them exactly.
func TestRowsSortByNameNotID(t *testing.T) {
	r := NewRecorder(NoRing)
	names := []string{"node3", "bs", "node10", "node1", "channel"}
	ids := make([]NodeID, len(names))
	for i, n := range names {
		ids[i] = r.ID(n)
	}
	traffic := func() {
		for i, id := range ids {
			Record1(r, 0, id, KindDataTx, "%d", i)
			Record1(r, 0, id, KindBeaconRx, "%d", i)
			r.Observe(id, HistTxToAck, sim.Time(i+1)*sim.Millisecond)
			r.Observe(id, HistSlotWait, sim.Time(i+1)*sim.Millisecond)
		}
	}
	traffic()
	counters, hists := r.CounterRows(), r.HistRows()
	for i := 1; i < len(counters); i++ {
		a, b := counters[i-1], counters[i]
		if a.Node > b.Node || (a.Node == b.Node && a.Name >= b.Name) {
			t.Fatalf("counter rows out of order at %d: %+v then %+v", i, a, b)
		}
	}
	if counters[0].Node != "bs" || counters[0].Name != "event.beacon-rx" || hists[0].Name != "slot-wait" {
		t.Fatalf("first rows %+v / %+v, want bs beacon-rx and slot-wait", counters[0], hists[0])
	}
	r.ResetDerived()
	if r.ID("node3") != ids[0] {
		t.Fatal("ResetDerived renumbered a node")
	}
	traffic()
	if !reflect.DeepEqual(r.CounterRows(), counters) || !reflect.DeepEqual(r.HistRows(), hists) {
		t.Fatal("rows changed across ResetDerived and identical traffic")
	}
}

// TestKindAndHistNames pins every name the outputs print: the counter
// rows, timelines, Chrome traces and goldens all carry these strings.
func TestKindAndHistNames(t *testing.T) {
	kindsWant := []string{
		"beacon-tx", "beacon-rx", "ssr-tx", "slot-grant", "slot-start", "data-tx", "data-rx",
		"ack-rx", "ack-missed", "collision", "crc-drop", "addr-filter", "cycle-grow", "joined",
		"beat", "crash", "reboot", "slot-reclaim", "link-down", "link-up", "jam-on", "jam-off",
		"brownout", "degrade", "parked", "slot-skip", "slot-release", "data-dropped",
	}
	if len(kindNames) != kinds || kinds != len(kindsWant) {
		t.Fatalf("%d kind names, %d kinds, want %d", len(kindNames), kinds, len(kindsWant))
	}
	for i, want := range kindsWant {
		if got := Kind(i).String(); got != want {
			t.Errorf("Kind(%d) = %q, want %q", i, got, want)
		}
	}
	histsWant := []string{"slot-wait", "tx-to-ack", "rejoin-time", "degraded-time"}
	if len(histNames) != hists || hists != len(histsWant) {
		t.Fatalf("%d hist names, %d hists, want %d", len(histNames), hists, len(histsWant))
	}
	for i, want := range histsWant {
		if got := Hist(i).String(); got != want {
			t.Errorf("Hist(%d) = %q, want %q", i, got, want)
		}
	}
	if Kind(kinds).String() != "kind(28)" || Hist(hists).String() != "hist(4)" {
		t.Errorf("out-of-range names %q, %q", Kind(kinds), Hist(hists))
	}
}
