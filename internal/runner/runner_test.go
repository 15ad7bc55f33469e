package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/sim"
)

// testConfig is a small but fully featured scenario: multiple nodes, a
// lossy channel (so the kernel RNG is exercised hard) and clock drift
// (so the per-node random sign draws matter), with the event ring on.
func testConfig(seed int64) core.Config {
	return traced(core.Config{
		Variant:       mac.Static,
		Nodes:         3,
		Cycle:         30 * sim.Millisecond,
		App:           core.AppStreaming,
		SampleRateHz:  205,
		Duration:      2 * sim.Second,
		Seed:          seed,
		BER:           5e-4,
		ClockDriftPPM: 50,
	})
}

// traced opts a scenario into the event ring, so the determinism and
// worker-invariance oracles compare the whole timeline, not just the
// counters a ring-less run keeps.
func traced(cfg core.Config) core.Config {
	cfg.TraceLimit = core.DefaultTraceRing
	return cfg
}

// TestDeterminism is the contract that makes parallelism safe to trust:
// the same (Config, Seed) run twice sequentially and once through the
// parallel runner must produce three deep-equal core.Results — energy
// figures, loss categories, protocol statistics, and the full event
// trace.
func TestDeterminism(t *testing.T) {
	cfg := testConfig(7)

	seqA, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Bury the point of interest in the middle of a batch of decoys with
	// different seeds, so workers interleave freely around it.
	var points []Point
	for i := 0; i < 4; i++ {
		points = append(points, Point{
			Label:  fmt.Sprintf("decoy=%d", i),
			Config: testConfig(DeriveSeed(1000, i)),
		})
	}
	points = append(points[:2], append([]Point{{Label: "target", Config: cfg}}, points[2:]...)...)
	results := Run(points, Options{Workers: 4})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	par := results[2].Res

	if len(seqA.Trace.Events()) == 0 {
		t.Fatal("the event ring kept nothing; the trace comparison would be vacuous")
	}
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatal("two sequential runs of the same (Config, Seed) differ")
	}
	if !reflect.DeepEqual(seqA, par) {
		describeDiff(t, seqA, par)
		t.Fatal("parallel run differs from sequential run of the same (Config, Seed)")
	}
}

// describeDiff narrows a Results mismatch to the first differing field
// group, so a determinism regression points at the leaking state.
func describeDiff(t *testing.T, a, b core.Results) {
	t.Helper()
	if !reflect.DeepEqual(a.Nodes, b.Nodes) {
		for i := range a.Nodes {
			if !reflect.DeepEqual(a.Nodes[i], b.Nodes[i]) {
				t.Logf("node %d differs:\n a=%+v\n b=%+v", i, a.Nodes[i], b.Nodes[i])
			}
		}
	}
	if !reflect.DeepEqual(a.BSEnergy, b.BSEnergy) {
		t.Logf("BS energy differs")
	}
	if !reflect.DeepEqual(a.BSStats, b.BSStats) {
		t.Logf("BS stats differ: a=%+v b=%+v", a.BSStats, b.BSStats)
	}
	if a.Channel != b.Channel {
		t.Logf("channel stats differ: a=%+v b=%+v", a.Channel, b.Channel)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Logf("traces differ (a=%d events)", len(a.Trace.Events()))
	}
}

// TestWorkerCountInvariance runs the same batch at several worker counts
// and requires bitwise-identical result slices: worker scheduling must
// never leak into outcomes.
func TestWorkerCountInvariance(t *testing.T) {
	var points []Point
	for i := 0; i < 6; i++ {
		cfg := testConfig(DeriveSeed(42, i))
		if i%2 == 1 {
			cfg.Variant = mac.Dynamic
			cfg.Cycle = 0
		}
		points = append(points, Point{Label: fmt.Sprintf("p%d", i), Config: cfg})
	}
	baseline := Run(points, Options{Workers: 1})
	if err := FirstErr(baseline); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got := Run(points, Options{Workers: w})
		if !reflect.DeepEqual(baseline, got) {
			t.Fatalf("results at workers=%d differ from workers=1", w)
		}
	}
}

// TestOrderedResults asserts output order == input order regardless of
// completion order.
func TestOrderedResults(t *testing.T) {
	const n = 20
	points := make([]Point, n)
	for i := range points {
		points[i] = Point{Label: fmt.Sprintf("point-%d", i)}
	}
	results := Run(points, Options{
		Workers: 4,
		// A cheap executor keeps this test fast; ordering is a pure
		// runner property, independent of what runs inside a point.
		Exec: func(cfg core.Config) (core.Results, error) {
			return core.Results{Config: cfg}, nil
		},
	})
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i || r.Label != fmt.Sprintf("point-%d", i) {
			t.Fatalf("result %d out of order: index=%d label=%q", i, r.Index, r.Label)
		}
	}
}

// TestPanicRecovery: a panicking point becomes an error result and the
// rest of the batch still completes.
func TestPanicRecovery(t *testing.T) {
	points := make([]Point, 8)
	for i := range points {
		points[i] = Point{Label: fmt.Sprintf("p%d", i)}
		points[i].Config.Seed = int64(i)
	}
	results := Run(points, Options{
		Workers: 4,
		Exec: func(cfg core.Config) (core.Results, error) {
			if cfg.Seed == 3 {
				panic("model exploded")
			}
			return core.Results{}, nil
		},
	})
	for i, r := range results {
		if i == 3 {
			if r.Err == nil {
				t.Fatal("panicking point returned no error")
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("healthy point %d got error: %v", i, r.Err)
		}
	}
	if err := FirstErr(results); err == nil {
		t.Fatal("FirstErr missed the panic result")
	}
}

// TestErrorResultDoesNotAbortBatch: ordinary errors are also isolated.
func TestErrorResultDoesNotAbortBatch(t *testing.T) {
	sentinel := errors.New("bad point")
	points := make([]Point, 5)
	for i := range points {
		points[i].Config.Seed = int64(i)
	}
	results := Run(points, Options{
		Workers: 2,
		Exec: func(cfg core.Config) (core.Results, error) {
			if cfg.Seed == 1 {
				return core.Results{}, sentinel
			}
			return core.Results{}, nil
		},
	})
	if !errors.Is(results[1].Err, sentinel) {
		t.Fatalf("result 1 error = %v, want sentinel", results[1].Err)
	}
	for i, r := range results {
		if i != 1 && r.Err != nil {
			t.Fatalf("point %d unexpectedly failed: %v", i, r.Err)
		}
	}
}

// TestProgress: the callback sees every completion exactly once, Done
// climbs 1..Total, and calls are serialised.
func TestProgress(t *testing.T) {
	const n = 12
	points := make([]Point, n)
	var mu sync.Mutex
	var seen []Progress
	Run(points, Options{
		Workers: 4,
		Exec: func(core.Config) (core.Results, error) {
			return core.Results{}, nil
		},
		OnProgress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			seen = append(seen, p)
		},
	})
	if len(seen) != n {
		t.Fatalf("progress called %d times, want %d", len(seen), n)
	}
	for i, p := range seen {
		if p.Done != i+1 {
			t.Fatalf("progress %d: Done=%d, want %d", i, p.Done, i+1)
		}
		if p.Total != n {
			t.Fatalf("progress %d: Total=%d, want %d", i, p.Total, n)
		}
	}
	if last := seen[n-1]; last.ETA != 0 {
		t.Fatalf("final progress ETA = %v, want 0", last.ETA)
	}
}

// TestEmptyBatch: a zero-point batch returns an empty slice without
// spinning up workers.
func TestEmptyBatch(t *testing.T) {
	if got := Run(nil, Options{Workers: 4}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestWorkersDefault: Workers<=0 selects GOMAXPROCS, capped at the batch
// size; all points still run.
func TestWorkersDefault(t *testing.T) {
	o := Options{}
	if w := o.workers(1000); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS=%d", w, runtime.GOMAXPROCS(0))
	}
	if w := o.workers(1); w != 1 {
		t.Fatalf("workers capped at batch size: got %d, want 1", w)
	}
}

// TestDeriveSeed: distinct indices give distinct, scheduling-independent
// seeds, and the base seed shifts the whole family.
func TestDeriveSeed(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed(1, %d) == DeriveSeed(1, %d)", i, prev)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Fatal("base seed has no effect")
	}
}
