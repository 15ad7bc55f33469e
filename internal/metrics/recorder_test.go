package metrics

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecordAndQuery(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, "bs", KindBeaconTx, "seq=0")
	r.Record(5*sim.Millisecond, "node1", KindBeaconRx, "seq=0")
	Record1(r, 6*sim.Millisecond, r.ID("node1"), KindSSRTx, "nonce=%d", 42)
	r.Record(30*sim.Millisecond, "bs", KindBeaconTx, "seq=1")

	if got := len(r.Events()); got != 4 {
		t.Fatalf("events = %d, want 4", got)
	}
	if got := r.Count(KindBeaconTx); got != 2 {
		t.Fatalf("beacon-tx count = %d, want 2", got)
	}
	if e := r.Events()[2]; e.Node != "node1" || e.Kind != KindSSRTx || e.Detail != "nonce=42" {
		t.Fatalf("ID-recorded event = %+v", e)
	}
	f := r.Filter(KindSSRTx)
	if len(f) != 1 || f[0].At != 6*sim.Millisecond {
		t.Fatalf("Filter = %+v", f)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, "bs", KindBeaconTx, "")
	Record1(r, 0, r.ID("bs"), KindBeaconTx, "x%d", 1)
	if r.Events() != nil || r.Filter(KindBeaconTx) != nil {
		t.Fatalf("nil recorder returned data")
	}
	if r.Count(KindBeaconTx) != 0 {
		t.Fatalf("nil recorder counted events")
	}
}

func TestLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(sim.Time(i), "n", KindDataTx, "")
	}
	if got := len(r.Events()); got != 2 {
		t.Fatalf("limited recorder kept %d events, want 2", got)
	}
	// The drop is counted and surfaced, never silent: Count stays exact
	// and Render appends a trailer naming the loss.
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	if got := r.Count(KindDataTx); got != 5 {
		t.Fatalf("Count = %d, want the exact 5 despite the limit", got)
	}
	if out := r.Render(); !strings.Contains(out, "3 further event(s) dropped") {
		t.Fatalf("Render hides the drop:\n%s", out)
	}
}

func TestRender(t *testing.T) {
	r := NewRecorder(0)
	r.Record(30*sim.Millisecond, "bs", KindBeaconTx, "seq=1")
	r.Record(31*sim.Millisecond, "node2", KindBeaconRx, "")
	out := r.Render()
	if !strings.Contains(out, "beacon-tx") || !strings.Contains(out, "seq=1") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Fatalf("render lines = %d, want 2", lines)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 30 * sim.Millisecond, Node: "bs", Kind: KindBeaconTx}
	if !strings.Contains(e.String(), "30.000ms") {
		t.Fatalf("String() = %q", e.String())
	}
	e.Detail = "seq=3"
	if !strings.Contains(e.String(), "seq=3") {
		t.Fatalf("String() with detail = %q", e.String())
	}
}
