package core

import (
	"testing"

	"repro/internal/battery"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// lifetimeConfig is a battery-backed scenario small enough that the
// cells run dry inside the window.
func lifetimeConfig(seed int64, scale float64, degrade bool) Config {
	cell := battery.CR2032()
	cell.CapacityMAh *= scale
	cfg := Config{
		Variant:      mac.Dynamic,
		Nodes:        3,
		App:          AppStreaming,
		SampleRateHz: 205,
		Duration:     20 * sim.Second,
		Warmup:       2 * sim.Second,
		Seed:         seed,
		Battery:      &cell,
	}
	if degrade {
		p := battery.DefaultDegradePolicy()
		cfg.Degrade = &p
		cfg.SlotReclaimCycles = 12
	}
	return cfg
}

func TestBatteryConfigValidate(t *testing.T) {
	base := Config{
		Variant: mac.Static, Nodes: 2, Cycle: 30 * sim.Millisecond,
		App: AppStreaming, SampleRateHz: 205, Duration: sim.Second,
	}
	cell := battery.CR2032()

	// Battery-dependent knobs without a battery are configuration errors,
	// not silent no-ops.
	c := base
	c.BrownoutV = 2.0
	if err := (&c).Validate(); err == nil {
		t.Error("brownoutV without a battery accepted")
	}
	c = base
	p := battery.DefaultDegradePolicy()
	c.Degrade = &p
	if err := (&c).Validate(); err == nil {
		t.Error("degradePolicy without a battery accepted")
	}

	// Unusable cells.
	for i, mutate := range []func(b *battery.Battery){
		func(b *battery.Battery) { b.CapacityMAh = 0 },
		func(b *battery.Battery) { b.VoltageV = -1 },
		func(b *battery.Battery) { b.Efficiency = 1.5 },
	} {
		c = base
		bad := cell
		mutate(&bad)
		c.Battery = &bad
		if err := (&c).Validate(); err == nil {
			t.Errorf("unusable cell %d accepted", i)
		}
	}

	// Brownout thresholds the discharge curve can never cross.
	for _, v := range []float64{cell.VoltageAt(0) - 0.1, cell.VoltageAt(1) + 0.1} {
		c = base
		b := cell
		c.Battery = &b
		c.BrownoutV = v
		if err := (&c).Validate(); err == nil {
			t.Errorf("out-of-range brownout %v V accepted", v)
		}
	}

	// A valid battery config defaults the cutoff and normalises the
	// policy on a private copy.
	c = base
	b := cell
	c.Battery = &b
	shared := battery.DegradePolicy{}
	c.Degrade = &shared
	if err := (&c).Validate(); err != nil {
		t.Fatalf("valid battery config rejected: %v", err)
	}
	if c.BrownoutV != cell.DefaultCutoffV() {
		t.Fatalf("brownout defaulted to %v, want %v", c.BrownoutV, cell.DefaultCutoffV())
	}
	if shared != (battery.DegradePolicy{}) {
		t.Fatalf("caller's policy mutated: %+v", shared)
	}
	if *c.Degrade != battery.DefaultDegradePolicy() {
		t.Fatalf("policy not normalised: %+v", *c.Degrade)
	}

	// An invalid policy propagates its error.
	c = base
	b = cell
	c.Battery = &b
	c.Degrade = &battery.DegradePolicy{StretchEvery: 1}
	if err := (&c).Validate(); err == nil {
		t.Error("invalid degrade policy accepted")
	}
}

func TestBatteryScenarioRoundTrip(t *testing.T) {
	data := []byte(`{
		"mac": "dynamic", "nodes": 2, "app": "streaming", "sampleRateHz": 205,
		"duration": "5s", "seed": 3,
		"battery": {"cell": "cr2032", "capacityScale": 1e-3},
		"brownoutV": 2.1,
		"degradePolicy": {"stretchSOC": 0.4, "stretchEvery": 3, "downshiftSOC": 0.2, "beaconOnlySOC": 0.06}
	}`)
	cfg, err := ConfigFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	ref := battery.CR2032()
	if cfg.Battery == nil || cfg.Battery.VoltageV != ref.VoltageV {
		t.Fatalf("battery = %+v", cfg.Battery)
	}
	if want := ref.CapacityMAh * 1e-3; cfg.Battery.CapacityMAh != want {
		t.Fatalf("scaled capacity = %v, want %v", cfg.Battery.CapacityMAh, want)
	}
	if cfg.BrownoutV != 2.1 {
		t.Fatalf("brownoutV = %v", cfg.BrownoutV)
	}
	if cfg.Degrade == nil || cfg.Degrade.StretchSOC != 0.4 || cfg.Degrade.StretchEvery != 3 {
		t.Fatalf("degrade = %+v", cfg.Degrade)
	}
	out, err := ConfigToJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ConfigFromJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if *back.Battery != *cfg.Battery || back.BrownoutV != cfg.BrownoutV || *back.Degrade != *cfg.Degrade {
		t.Fatalf("round trip changed the battery fields:\n was %+v %v %+v\n got %+v %v %+v",
			*cfg.Battery, cfg.BrownoutV, *cfg.Degrade, *back.Battery, back.BrownoutV, *back.Degrade)
	}

	// Unknown presets are rejected with a decode error.
	if _, err := ConfigFromJSON([]byte(`{"battery": {"cell": "aaa"}}`)); err == nil {
		t.Error("unknown battery preset accepted")
	}
}

// TestBrownoutEmergesInResults runs the cells dry and checks the
// emergent deaths surface everywhere the tentpole promises: per-node
// battery reports, brownout outcomes next to injected faults, and the
// lifetime figures.
func TestBrownoutEmergesInResults(t *testing.T) {
	cfg := lifetimeConfig(7, 2e-4, false)
	// The crashed node spends 2 s powered off, saving charge; a longer
	// window lets it reach its (later) brownout too.
	cfg.Duration = 25 * sim.Second
	cfg.Faults = []fault.Fault{
		{Kind: fault.KindCrash, Node: 2, At: 8 * sim.Second, RebootAfter: 2 * sim.Second},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var deaths int
	for _, n := range res.Nodes {
		if n.Battery == nil {
			t.Fatalf("%s: no battery report", n.Name)
		}
		if n.Battery.Died {
			deaths++
			if n.Battery.DiedAt <= 0 || n.Battery.DiedAt > cfg.Duration+cfg.Warmup {
				t.Fatalf("%s died at %v, outside the run", n.Name, n.Battery.DiedAt)
			}
		}
	}
	if deaths != len(res.Nodes) {
		t.Fatalf("%d of %d nodes browned out; the cells were sized to run dry", deaths, len(res.Nodes))
	}
	if res.TimeToFirstDeath <= 0 || res.NetworkLifetime < res.TimeToFirstDeath {
		t.Fatalf("lifetime figures: ttfd=%v lifetime=%v", res.TimeToFirstDeath, res.NetworkLifetime)
	}
	// The brownouts appear in the fault outcomes alongside the scheduled
	// crash, in deterministic order.
	var brownouts, crashes int
	for _, o := range res.Faults {
		switch o.Fault.Kind {
		case fault.KindBrownout:
			brownouts++
		case fault.KindCrash:
			crashes++
		}
	}
	if brownouts != deaths || crashes != 1 {
		t.Fatalf("outcomes: %d brownouts (want %d), %d crashes (want 1)", brownouts, deaths, crashes)
	}
}

// TestDegradePolicyExtendsLifetime is the closed loop the subsystem
// exists for: under the same load, seed and cell, switching the
// degradation policy on must not shorten any node's life — and must
// measurably stretch the network's.
func TestDegradePolicyExtendsLifetime(t *testing.T) {
	for _, seed := range []int64{1, 7, 21} {
		plain, err := Run(lifetimeConfig(seed, 2e-4, false))
		if err != nil {
			t.Fatal(err)
		}
		soft, err := Run(lifetimeConfig(seed, 2e-4, true))
		if err != nil {
			t.Fatal(err)
		}
		// Per-node twin property: a degraded node dies no earlier than its
		// non-degraded twin. Both twins drain identical cells, so a later
		// death is exactly a lower average power while alive.
		for i := range plain.Nodes {
			p, s := plain.Nodes[i].Battery, soft.Nodes[i].Battery
			if !p.Died {
				t.Fatalf("seed %d: baseline %s survived; shrink the cell", seed, plain.Nodes[i].Name)
			}
			if s.Died && s.DiedAt < p.DiedAt {
				t.Errorf("seed %d %s: died at %v degraded vs %v baseline — the policy cost energy",
					seed, plain.Nodes[i].Name, s.DiedAt, p.DiedAt)
			}
		}
		// Network-level: the degraded run's lifetime strictly exceeds the
		// baseline's (0 means the majority outlived the whole window).
		if soft.NetworkLifetime != 0 && soft.NetworkLifetime <= plain.NetworkLifetime {
			t.Errorf("seed %d: network lifetime %v with the policy vs %v without",
				seed, soft.NetworkLifetime, plain.NetworkLifetime)
		}
	}
}

// TestLPLParkMidBurstSendsNothing parks LPL nodes on the beacon-only rung
// while they stream: a node parked between firing a data frame and the
// end of its burst must not count the frame, trace a data-tx or open an
// ack window. The seeds are ones where a park lands inside a burst.
func TestLPLParkMidBurstSendsNothing(t *testing.T) {
	cell := battery.CR2032()
	cell.CapacityMAh *= 3e-4
	for _, seed := range []int64{1, 19, 30} {
		res, err := Run(Config{Protocol: mac.ProtoLPL, Nodes: 5, App: AppStreaming, SampleRateHz: 205,
			Duration: 10 * sim.Second, Seed: seed, Battery: &cell, TraceLimit: DefaultTraceRing,
			Degrade: &battery.DegradePolicy{StretchSOC: 0.8, StretchEvery: 3, DownshiftSOC: 0.7, BeaconOnlySOC: 0.6}})
		if err != nil {
			t.Fatal(err)
		}
		parked := map[string]bool{}
		for _, e := range res.Trace.Events() {
			switch e.Kind {
			case metrics.KindParked:
				parked[e.Node] = true
			case metrics.KindDataTx, metrics.KindAckMissed:
				if parked[e.Node] {
					t.Errorf("seed %d: parked %s traced %s at %v", seed, e.Node, e.Kind, e.At)
				}
			}
		}
		if len(parked) == 0 {
			t.Fatalf("seed %d: no node parked; the cell is too large", seed)
		}
	}
}
