package report

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden render files")

// checkGolden compares a rendered string against its committed golden
// file byte-for-byte, rewriting it under -update. Renders feed documents
// (EXPERIMENTS.md, CLI output) verbatim, so even whitespace drift is a
// regression.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden files)", err)
	}
	if got != string(want) {
		t.Errorf("render drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGoldenRenderMarkdown(t *testing.T) {
	checkGolden(t, "table.md.golden", sampleTable().RenderMarkdown())
}

func TestGoldenRenderCSV(t *testing.T) {
	checkGolden(t, "table.csv.golden", sampleTable().RenderCSV())
}

func TestGoldenRenderText(t *testing.T) {
	checkGolden(t, "table.txt.golden", sampleTable().Render())
}

// sampleResilience is a canned fault-injection outcome: one recovered
// crash, one unrecovered crash, a blackout and an interference burst —
// every branch RenderResilience distinguishes.
func sampleResilience() ([]NodeAvailability, []fault.Outcome, uint64) {
	nodes := []NodeAvailability{
		{Name: "node1", Availability: 0.82, DeliveryRatio: 0.97},
		{Name: "node2", Availability: 1.0, DeliveryRatio: 1.0},
	}
	outcomes := []fault.Outcome{
		{
			Fault:        fault.Fault{Kind: fault.KindCrash, Node: 1, At: 8 * sim.Second, RebootAfter: 2 * sim.Second},
			RebootedAt:   10 * sim.Second,
			Rejoined:     true,
			RejoinedAt:   10*sim.Second + 310*sim.Millisecond,
			TimeToRejoin: 310 * sim.Millisecond,
			SentDuring:   12, AckedDuring: 0,
		},
		{
			Fault: fault.Fault{Kind: fault.KindCrash, Node: 2, At: 15 * sim.Second},
		},
		{
			Fault:      fault.Fault{Kind: fault.KindBlackout, From: "node1", To: "bs", At: 5 * sim.Second, Until: 6 * sim.Second},
			SentDuring: 33, AckedDuring: 21,
		},
		{
			Fault:      fault.Fault{Kind: fault.KindInterference, At: 9 * sim.Second, Until: 9500 * sim.Millisecond},
			SentDuring: 16, AckedDuring: 4,
		},
	}
	return nodes, outcomes, 1
}

func TestGoldenRenderResilience(t *testing.T) {
	nodes, outcomes, reclaimed := sampleResilience()
	checkGolden(t, "resilience.txt.golden", RenderResilience(nodes, outcomes, reclaimed))
}

func TestRenderResilienceQuietWhenClean(t *testing.T) {
	nodes := []NodeAvailability{{Name: "node1", Availability: 1, DeliveryRatio: 1}}
	if out := RenderResilience(nodes, nil, 0); out != "" {
		t.Fatalf("fault-free full-availability run rendered %q, want silence", out)
	}
	// Partial availability must surface even without scheduled faults.
	nodes[0].Availability = 0.5
	if out := RenderResilience(nodes, nil, 0); out == "" {
		t.Fatal("degraded availability rendered nothing")
	}
}

// sampleSnapshot is a canned observability snapshot exercising every
// RenderMetrics section: states, losses, counters, histograms and a
// non-zero drop count.
func sampleSnapshot() *metrics.Snapshot {
	rec := metrics.NewRecorder(2)
	rec.Record(0, "bs", metrics.KindBeaconTx, "")
	rec.Record(10*sim.Millisecond, "node1", metrics.KindBeaconRx, "")
	rec.Record(12*sim.Millisecond, "node1", metrics.KindDataTx, "")
	rec.Observe(rec.ID("node1"), metrics.HistSlotWait, 5*sim.Millisecond)
	rec.Observe(rec.ID("node1"), metrics.HistSlotWait, 9*sim.Millisecond)
	rec.Observe(rec.ID("node1"), metrics.HistTxToAck, 420*sim.Microsecond)
	s := metrics.Assemble(rec, nil, nil, []metrics.CounterRow{
		{Node: "node1", Name: "mac.data-sent", Value: 1},
	}, 12345)
	s.States = []metrics.StateRow{
		{Node: "node1", Component: "radio", State: "rx", Time: 1200 * sim.Millisecond, EnergyMJ: 83.4},
		{Node: "node1", Component: "radio", State: "standby", Time: 58800 * sim.Millisecond, EnergyMJ: 1.98},
		{Node: "node1", Component: "loss", State: "idle-listening", EnergyMJ: 12.7},
	}
	return s
}

func TestGoldenRenderMetrics(t *testing.T) {
	checkGolden(t, "metrics.txt.golden", RenderMetrics(sampleSnapshot()))
}

func TestRenderMetricsNil(t *testing.T) {
	if out := RenderMetrics(nil); out != "" {
		t.Fatalf("nil snapshot rendered %q", out)
	}
}

func TestGoldenSnapshotJSON(t *testing.T) {
	data, err := sampleSnapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json.golden", string(data)+"\n")
}
