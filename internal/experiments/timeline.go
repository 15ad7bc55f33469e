package experiments

import (
	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/sim"
)

// Timeline is the protocol-trace scenario behind Figures 2 (static TDMA)
// and 3 (dynamic TDMA), and its CSMA and LPL counterparts: two 100 Hz
// streaming nodes power on 150 ms apart and join a running network, so
// each SSRi -> grant -> Si sequence shows on its own, as the paper draws
// them.
type Timeline struct {
	Protocol mac.Protocol
	Seed     int64
	// Crash kills node 1 once both nodes are in steady state and cold
	// boots it after the base station has reclaimed its slot (dynamic
	// TDMA: the cycle shrinks), so the trace shows the SSR-based rejoin.
	Crash bool
	// Degrade runs the nodes on nearly-empty cells: stretch, downshift,
	// beacon-only parking and brownout play out inside the trace.
	Degrade bool
}

// The -degrade trace cell: a CR2032-voltage battery holding a few
// millijoules.
const (
	traceCellCapacityMAh = 4e-3
	traceCellVoltageV    = 3.0
)

// Config returns the scenario, every event kept in the trace ring. The
// 10 ms warm-up ends before the first node powers on, so its accounting
// reset touches only the base station. The traced span, warm-up
// included, shows the whole story: both joins, the crash and rejoin, or
// the degradation cascade down to brownout.
func (t Timeline) Config() core.Config {
	cfg := core.Config{Protocol: t.Protocol, Nodes: 2, Cycle: 60 * sim.Millisecond,
		App: core.AppStreaming, SampleRateHz: 100, Seed: t.Seed, TraceLimit: core.DefaultTraceRing,
		Warmup: 10 * sim.Millisecond, StartStagger: 150 * sim.Millisecond}
	horizon := 550 * sim.Millisecond
	if t.Crash {
		// Reclaim after 8 silent cycles: longer than the streaming app's
		// inter-frame gap, so a live node keeps its slot.
		cfg.SlotReclaimCycles = 8
		cfg.Faults = []fault.Fault{{Kind: fault.KindCrash, Node: 1,
			At: 550 * sim.Millisecond, RebootAfter: 260 * sim.Millisecond}}
		horizon = 950 * sim.Millisecond
	}
	if t.Degrade {
		cfg.Battery = &battery.Battery{CapacityMAh: traceCellCapacityMAh, VoltageV: traceCellVoltageV}
		policy := battery.DefaultDegradePolicy()
		cfg.Degrade = &policy
		horizon = 2600 * sim.Millisecond
	}
	cfg.Duration = horizon - cfg.Warmup
	return cfg
}
