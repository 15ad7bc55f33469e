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

// budgetCase is one configuration and the ceilings on what a run of it
// may allocate: at a 1 ns window (set-up alone) and over the full run.
type budgetCase struct {
	name                 string
	cfg                  Config
	setupAllocs, setupKB uint64
	fullAllocs, fullKB   uint64
}

// budgetCases are the benchmark's table1-stream, lpl-stream,
// rpeak-onnode and chaos-observed configurations at seed 1, and one
// paper-tables row (Table 2, n=1, dynamic TDMA). A run's allocations are
// fixed costs, so allocations per kernel event rise whenever a change
// removes events. The ceilings sit about 3% above the counts measured
// with Go 1.24 on amd64 (set-up and full run: table1-stream 311 and 418
// allocations, lpl-stream 283 and 407, rpeak-onnode 311 and 428,
// chaos-observed 470 and 683, the Table 2 row 107 and 147), so spending
// this budget is a deliberate, visible change.
func budgetCases() []budgetCase {
	cell := battery.CR2032()
	cell.CapacityMAh *= 4e-4
	return []budgetCase{
		{name: "table1-stream",
			cfg: Config{Variant: mac.Static, Nodes: 5, Cycle: 30 * sim.Millisecond,
				App: AppStreaming, SampleRateHz: 205, Duration: 60 * sim.Second, Seed: 1},
			setupAllocs: 320, setupKB: 53, fullAllocs: 431, fullKB: 79},
		{name: "lpl-stream",
			cfg: Config{Protocol: mac.ProtoLPL, Nodes: 5, App: AppStreaming,
				SampleRateHz: 205, Warmup: 15 * sim.Second, Duration: 30 * sim.Second, Seed: 1},
			setupAllocs: 292, setupKB: 52, fullAllocs: 419, fullKB: 79},
		{name: "rpeak-onnode",
			cfg: Config{Variant: mac.Static, Nodes: 5, Cycle: 120 * sim.Millisecond,
				App: AppRpeak, Duration: 60 * sim.Second, Seed: 1},
			setupAllocs: 320, setupKB: 52, fullAllocs: 441, fullKB: 79},
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
			setupAllocs: 484, setupKB: 86, fullAllocs: 703, fullKB: 157},
		{name: "paper-tables table2 n=1",
			cfg: Config{Variant: mac.Dynamic, Nodes: 1, App: AppStreaming,
				SampleRateHz: 300, Duration: paperdata.Window, Seed: 1},
			setupAllocs: 110, setupKB: 26, fullAllocs: 151, fullKB: 46},
	}
}

// runCost reports the heap allocations and bytes of one run of cfg, as
// the least of three runs after a first that pays any one-off package
// initialisation: the runtime and the test harness now and then
// allocate during a run on their own account, which only adds.
func runCost(t *testing.T, cfg Config) (allocs, bytes uint64) {
	t.Helper()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
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
	return allocs, bytes
}

// TestAllocationBudget pins the allocations and bytes per run of the
// benchmark's Table-1, LPL, Rpeak and chaos configurations and of a
// Table 2 row, set-up alone and over the full run.
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
			allocs, bytes := runCost(t, run.cfg)
			t.Logf("%s %s: %d allocations, %.1f kB", c.name, run.what, allocs, float64(bytes)/1e3)
			if allocs > run.maxAllocs || bytes > run.maxKB*1000 {
				t.Errorf("%s %s: %d allocations and %.1f kB, budget %d and %d kB",
					c.name, run.what, allocs, float64(bytes)/1e3, run.maxAllocs, run.maxKB)
			}
		}
	}
}
