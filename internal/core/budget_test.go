package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/paperdata"
	"repro/internal/sim"
)

// budgetCase is one configuration, the kernel events its full run
// dispatches, and the ceilings on what a run of it may allocate: at a
// 1 ns window (set-up alone) and over the full run.
type budgetCase struct {
	name                 string
	cfg                  Config
	events               uint64
	setupAllocs, setupKB uint64
	fullAllocs, fullKB   uint64
}

// budgetCases are the benchmark's table1-stream, lpl-stream,
// rpeak-onnode and chaos-observed configurations at seed 1, and two
// paper-tables rows (Table 1 at 55 Hz, static TDMA; Table 2, n=1,
// dynamic TDMA). A run's allocations are fixed costs, so allocations
// per kernel event rise whenever a change removes events. The ceilings
// sit about 3% above the counts measured with Go 1.24 on amd64 (set-up
// and full run: table1-stream 197 and 242 allocations, 48.8 and 53.9
// kB; lpl-stream 211 and 242, 49.0 and 62.3 kB; rpeak-onnode 207 and
// 257, 49.7 and 54.9 kB; chaos-observed 396 and 526, 82.6 and 132.6
// kB; the Table 1 row 197 and 242, 48.8 and 53.9 kB; the Table 2 row
// 77 and 92, 25.6 and 27.7 kB), so spending this budget is a
// deliberate, visible change.
func budgetCases() []budgetCase {
	cell := battery.CR2032()
	cell.CapacityMAh *= 4e-4
	return []budgetCase{
		{name: "table1-stream",
			cfg: Config{Variant: mac.Static, Nodes: 5, Cycle: 30 * sim.Millisecond,
				App: AppStreaming, SampleRateHz: 205, Duration: 60 * sim.Second, Seed: 1},
			events:      191043,
			setupAllocs: 203, setupKB: 51, fullAllocs: 250, fullKB: 56},
		{name: "lpl-stream",
			cfg: Config{Protocol: mac.ProtoLPL, Nodes: 5, App: AppStreaming,
				SampleRateHz: 205, Warmup: 15 * sim.Second, Duration: 30 * sim.Second, Seed: 1},
			events:      249134,
			setupAllocs: 218, setupKB: 51, fullAllocs: 250, fullKB: 65},
		{name: "rpeak-onnode",
			cfg: Config{Variant: mac.Static, Nodes: 5, Cycle: 120 * sim.Millisecond,
				App: AppRpeak, Duration: 60 * sim.Second, Seed: 1},
			events:      144110,
			setupAllocs: 214, setupKB: 52, fullAllocs: 265, fullKB: 57},
		{name: "chaos-observed",
			cfg: Config{Protocol: mac.ProtoCSMA, Nodes: 5, App: AppStreaming,
				SampleRateHz: 55, Duration: 60 * sim.Second, Seed: 1, BER: 2e-4, Metrics: true,
				Audit: &audit.Config{Every: 100 * sim.Millisecond},
				Faults: []fault.Fault{
					{Kind: fault.KindCrash, Node: 2, At: 20 * sim.Second, RebootAfter: 2 * sim.Second},
					{Kind: fault.KindInterference, At: 40 * sim.Second, Until: 41 * sim.Second},
				},
				Battery: &cell,
				Degrade: &battery.DegradePolicy{StretchSOC: 0.5, StretchEvery: 3,
					DownshiftSOC: 0.3, BeaconOnlySOC: 0.08}},
			events:      60960,
			setupAllocs: 408, setupKB: 86, fullAllocs: 542, fullKB: 137},
		{name: "paper-tables table1 F=55Hz",
			cfg: Config{Variant: mac.Static, Nodes: 5, Cycle: 120 * sim.Millisecond,
				App: AppStreaming, SampleRateHz: 55, Duration: paperdata.Window, Seed: 1},
			events:      48930,
			setupAllocs: 203, setupKB: 51, fullAllocs: 250, fullKB: 56},
		{name: "paper-tables table2 n=1",
			cfg: Config{Variant: mac.Dynamic, Nodes: 1, App: AppStreaming,
				SampleRateHz: 300, Duration: paperdata.Window, Seed: 1},
			events:      72439,
			setupAllocs: 80, setupKB: 27, fullAllocs: 95, fullKB: 29},
	}
}

// runCost reports the heap allocations and bytes of one run of cfg, as
// the least of three runs after a first that pays any one-off package
// initialisation: the runtime and the test harness now and then
// allocate during a run on their own account, which only adds.
func runCost(t *testing.T, cfg Config) (allocs, bytes, events uint64) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events = res.KernelEvents
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes, events
}

// TestAllocationBudget pins the allocations and bytes per run of the
// benchmark's Table-1, LPL, Rpeak and chaos configurations and of a
// Table 1 and a Table 2 row, set-up alone and over the full run, next
// to the exact kernel events of the full run: a change that removes
// events shows here what it must save in allocations to keep
// allocations per event from rising.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, c := range budgetCases() {
		setup := c.cfg
		setup.Warmup, setup.Duration, setup.Faults = 1, 1, nil
		for _, run := range []struct {
			what             string
			cfg              Config
			maxAllocs, maxKB uint64
		}{
			{"set-up", setup, c.setupAllocs, c.setupKB},
			{"full run", c.cfg, c.fullAllocs, c.fullKB},
		} {
			allocs, bytes, events := runCost(t, run.cfg)
			t.Logf("%s %s: %d allocations, %.1f kB, %d events", c.name, run.what, allocs, float64(bytes)/1e3, events)
			if run.what == "full run" && events != c.events {
				t.Errorf("%s: %d kernel events, want %d", c.name, events, c.events)
			}
			if allocs > run.maxAllocs || bytes > run.maxKB*1000 {
				t.Errorf("%s %s: %d allocations and %.1f kB, budget %d and %d kB",
					c.name, run.what, allocs, float64(bytes)/1e3, run.maxAllocs, run.maxKB)
			}
		}
	}
}
