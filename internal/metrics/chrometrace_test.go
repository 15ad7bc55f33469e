package metrics

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{At: 10 * sim.Millisecond, Node: "node2", Kind: KindBeaconRx, Detail: "cycle=60ms"},
		{At: 0, Node: "bs", Kind: KindBeaconTx},
		{At: 20 * sim.Millisecond, Node: "node1", Kind: KindDataTx},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    float64           `json:"ts"`
			TID   int               `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	// 3 thread_name metadata records + 3 instants.
	if len(out.TraceEvents) != 6 {
		t.Fatalf("got %d trace events, want 6", len(out.TraceEvents))
	}
	// "bs" always gets track 0, the nodes follow in name order, so the
	// chrome://tracing layout is stable whatever the event order was.
	meta := map[string]int{}
	for _, e := range out.TraceEvents[:3] {
		if e.Phase != "M" {
			t.Fatalf("leading records must be metadata, got %+v", e)
		}
		meta[e.Args["name"]] = e.TID
	}
	if meta["bs"] != 0 || meta["node1"] != 1 || meta["node2"] != 2 {
		t.Fatalf("track assignment %v, want bs=0 node1=1 node2=2", meta)
	}
	// Timestamps convert ns -> µs; details ride in args.
	first := out.TraceEvents[3]
	if first.Phase != "i" || first.TS != 10000 || first.Args["detail"] != "cycle=60ms" {
		t.Fatalf("instant event mangled: %+v", first)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty trace is invalid JSON: %s", buf.Bytes())
	}
}

// FuzzChromeTrace feeds arbitrary event streams to the exporter: it must
// never panic and always emit valid JSON, whatever bytes land in the
// node names, kinds and details (chrome://tracing rejects the whole file
// on one malformed record).
func FuzzChromeTrace(f *testing.F) {
	f.Add("bs", uint8(KindBeaconTx), "cycle=60ms", int64(0), uint8(3))
	f.Add("node1", uint8(255), "detail with \x00 and \xff", int64(-5), uint8(9))
	f.Add("", uint8(0), "", int64(1)<<62, uint8(0))
	f.Fuzz(func(t *testing.T, node string, kind uint8, detail string, at int64, n uint8) {
		events := make([]Event, int(n%8)+1)
		for i := range events {
			events[i] = Event{
				At:     sim.Time(at) + sim.Time(i),
				Node:   node,
				Kind:   Kind(kind),
				Detail: detail,
			}
			if i%2 == 1 {
				events[i].Node = node + "'" // force a second track
			}
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, events); err != nil {
			t.Fatalf("exporter errored on in-memory buffer: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("invalid JSON from events %q/%d/%q: %s", node, kind, detail, buf.Bytes())
		}
	})
}

// TestWriteChromeTraceFile: the file holds exactly what WriteChromeTrace
// renders for the recorder's retained events.
func TestWriteChromeTraceFile(t *testing.T) {
	r := NewRecorder(0)
	r.Record(5*sim.Millisecond, "node1", KindSSRTx, "nonce=1")
	r.Record(6*sim.Millisecond, "bs", KindSlotGrant, "node=1 slot=0")
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteChromeTrace(&want, r.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file differs from the rendered trace:\n%s\nwant\n%s", got, want.Bytes())
	}
	if err := r.WriteChromeTraceFile(filepath.Join(path, "nested")); err == nil {
		t.Fatal("writing under a regular file succeeded")
	}
}
