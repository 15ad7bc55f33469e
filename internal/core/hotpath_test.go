package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mac"
	"repro/internal/sim"
)

// table1Point is a short run of the paper's heaviest Table-1 point:
// static TDMA, 5 nodes, 30 ms cycle, 2-channel ECG streaming at 205 Hz.
func table1Point() Config {
	return Config{Variant: mac.Static, Nodes: 5, Cycle: 30 * sim.Millisecond,
		App: AppStreaming, SampleRateHz: 205, Duration: 10 * sim.Second, Seed: 1}
}

// allocsPerEvent runs cfg and reports its heap allocations per
// dispatched kernel event, set-up included.
func allocsPerEvent(t *testing.T, cfg Config) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(res.KernelEvents)
	t.Logf("%d allocations over %d events: %.4f per event",
		after.Mallocs-before.Mallocs, res.KernelEvents, perEvent)
	return perEvent
}

// TestTable1PointAllocationFree bounds the heap allocations of a whole
// run per dispatched event. The per-sample path (ASIC, application,
// TinyOS, MCU, TDMA MAC, radio, channel) allocates nothing in steady
// state, so what remains is set-up and amortised buffer growth.
func TestTable1PointAllocationFree(t *testing.T) {
	if perEvent := allocsPerEvent(t, table1Point()); perEvent > 0.1 {
		t.Fatalf("%.4f allocations per event, want <= 0.1", perEvent)
	}
}

// TestLPLStreamAllocationFree is the same bound, tighter, for the
// preamble-sampling MAC's strobe trains, payload bursts and duty-cycled
// base station: 5 nodes streaming ECG at 205 Hz over LPL.
func TestLPLStreamAllocationFree(t *testing.T) {
	cfg := Config{Protocol: mac.ProtoLPL, Nodes: 5, App: AppStreaming, SampleRateHz: 205,
		Warmup: 5 * sim.Second, Duration: 10 * sim.Second, Seed: 1}
	if perEvent := allocsPerEvent(t, cfg); perEvent > 0.01 {
		t.Fatalf("%.4f allocations per event, want <= 0.01", perEvent)
	}
}

// TestTraceRingIsObserverOnly runs the same configurations with the
// event ring off (TraceLimit 0) and on: everything but the retained
// events must be deep-equal, and the ring-off run must still count
// every event exactly.
func TestTraceRingIsObserverOnly(t *testing.T) {
	chaos := chaosAuditConfig()
	chaos.Metrics = true
	for name, cfg := range map[string]Config{"table1": table1Point(), "chaos": chaos} {
		off := cfg
		on := cfg
		on.TraceLimit = DefaultTraceRing
		resOff, err := Run(off)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resOn, err := Run(on)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := len(resOff.Trace.Events()); n != 0 || resOff.Trace.Dropped() != 0 {
			t.Fatalf("%s: ring off retained %d events, dropped %d", name, n, resOff.Trace.Dropped())
		}
		if len(resOn.Trace.Events()) == 0 || resOn.Trace.Dropped() != 0 {
			t.Fatalf("%s: ring on retained %d events, dropped %d", name,
				len(resOn.Trace.Events()), resOn.Trace.Dropped())
		}
		if a, b := resOff.Trace.Recorded(), resOn.Trace.Recorded(); a != b || a != uint64(len(resOn.Trace.Events())) {
			t.Fatalf("%s: recorded %d events without the ring, %d with it (%d retained)",
				name, a, b, len(resOn.Trace.Events()))
		}
		if !reflect.DeepEqual(resOff.Trace.CounterRows(), resOn.Trace.CounterRows()) ||
			!reflect.DeepEqual(resOff.Trace.HistRows(), resOn.Trace.HistRows()) {
			t.Fatalf("%s: counters or histograms depend on the ring", name)
		}
		resOff.Trace, resOn.Trace = nil, nil
		resOn.Config.TraceLimit = 0
		if !reflect.DeepEqual(resOff, resOn) {
			t.Fatalf("%s: results differ between ring off and ring on", name)
		}
	}
}
