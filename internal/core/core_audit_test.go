package core

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/sim"
)

// chaosAuditConfig is a deliberately hostile scenario — lossy channel,
// clock drift, a crash with reboot, a blackout, slot reclamation and a
// battery small enough to degrade — under a fast audit cadence, so the
// sweeps observe the system mid-join, mid-retry, mid-crash and mid-death.
func chaosAuditConfig() Config {
	cell := battery.CR2032()
	cell.CapacityMAh *= 4e-5
	pol := battery.DefaultDegradePolicy()
	return Config{
		Variant:           mac.Dynamic,
		Nodes:             3,
		App:               AppRpeak,
		Duration:          3 * sim.Second,
		Warmup:            sim.Second,
		Seed:              42,
		BER:               2e-4,
		ClockDriftPPM:     200,
		SlotReclaimCycles: 8,
		Battery:           &cell,
		Degrade:           &pol,
		Faults: []fault.Fault{
			{Kind: fault.KindCrash, Node: 2, At: 1500 * sim.Millisecond,
				RebootAfter: 400 * sim.Millisecond},
			{Kind: fault.KindBlackout, From: "node1", To: "bs",
				At: 2200 * sim.Millisecond, Until: 2600 * sim.Millisecond},
		},
		Audit: &audit.Config{Every: 50 * sim.Millisecond},
	}
}

// TestAuditCleanUnderChaos runs the hostile scenario with every invariant
// registered and requires a clean bill: the laws must hold at every sweep
// instant, through crashes, reboots, retries, reclaims and brownouts.
func TestAuditCleanUnderChaos(t *testing.T) {
	res, err := Run(chaosAuditConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit == nil {
		t.Fatal("audit enabled but Results.Audit is nil")
	}
	if res.Audit.Failed() {
		t.Fatalf("invariants violated:\n%v", res.Audit.Violations)
	}
	if res.Audit.Checks == 0 {
		t.Fatal("no invariant sweeps ran")
	}
	// The scenario must actually exercise the interesting paths, or the
	// clean bill is vacuous.
	var retries uint64
	for _, n := range res.Nodes {
		retries += n.Mac.Retries
	}
	if retries == 0 {
		t.Fatal("no retries anywhere at BER 2e-4")
	}
	if res.TimeToFirstDeath == 0 {
		t.Fatal("the scaled-down cell never browned out")
	}
}

// TestAuditLPLWakeStraddlingReset runs the shrunk soak scenario whose
// only wake straddles the warm-up reset: its early ack lands before
// ResetAccounting and its payloads after, so the first sweep afterwards
// sees payloads with no early ack. The channel-access law grants one
// straddling wake its whole burst, and the run must audit clean.
func TestAuditLPLWakeStraddlingReset(t *testing.T) {
	cfg, err := ConfigFromJSON([]byte(`{
		"mac": {"protocol": "lpl", "checkInterval": "83ms"},
		"nodes": 1, "app": "streaming", "sampleRateHz": 175,
		"duration": "736.75ms", "warmup": "1s", "seed": 1113,
		"metrics": true, "audit": {"checkInterval": "50ms"}}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit.Checks == 0 {
		t.Fatal("no invariant sweeps ran")
	}
	if res.Audit.Failed() {
		t.Fatalf("invariants violated:\n%v", res.Audit.Violations)
	}
}

// TestAuditObserverOnly requires byte-identical results with auditing on
// and off, apart from Results.Audit itself and the kernel event count
// (the sweep ticks are events). This is the engine's core contract: it
// observes, it never perturbs.
func TestAuditObserverOnly(t *testing.T) {
	cfg := chaosAuditConfig()
	cfg.Metrics = true
	cfg.TraceLimit = DefaultTraceRing // compare the timelines event by event

	with := cfg
	without := cfg
	without.Audit = nil

	resWith, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	resWithout, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	if resWithout.Audit != nil {
		t.Fatal("audit disabled but Results.Audit is set")
	}
	if resWith.KernelEvents <= resWithout.KernelEvents {
		t.Fatalf("audited run dispatched %d events, unaudited %d: sweep ticks missing",
			resWith.KernelEvents, resWithout.KernelEvents)
	}

	// Blank the intended differences, then everything else must match.
	we, wo := resWith.Trace.Events(), resWithout.Trace.Events()
	if len(we) != len(wo) {
		t.Fatalf("trace length: audited %d, unaudited %d", len(we), len(wo))
	}
	for i := range we {
		if we[i] != wo[i] {
			t.Fatalf("trace diverges at event %d:\n  audited:   %+v\n  unaudited: %+v",
				i, we[i], wo[i])
		}
	}
	resWith.Trace, resWithout.Trace = nil, nil
	resWith.Audit = nil
	resWith.Config.Audit, resWithout.Config.Audit = nil, nil
	resWith.KernelEvents, resWithout.KernelEvents = 0, 0
	// The metrics snapshot mirrors the kernel event count; blank that one
	// field too (the row tables must still match exactly).
	resWith.Metrics.KernelEvents, resWithout.Metrics.KernelEvents = 0, 0
	if !reflect.DeepEqual(resWith, resWithout) {
		t.Fatalf("auditing perturbed the run:\n  audited:   %+v\n  unaudited: %+v",
			resWith, resWithout)
	}
}

// TestAuditScenarioJSON covers the scenario-file surface: the block
// decodes, round-trips, applies defaults, and rejects a non-positive
// cadence.
func TestAuditScenarioJSON(t *testing.T) {
	cfg, err := ConfigFromJSON([]byte(
		`{"nodes":1,"duration":"5s","audit":{"checkInterval":"100ms","limit":9}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Audit == nil || cfg.Audit.Every != 100*sim.Millisecond || cfg.Audit.Limit != 9 {
		t.Fatalf("decoded audit block: %+v", cfg.Audit)
	}
	data, err := ConfigToJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ConfigFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Audit, back.Audit) {
		t.Fatalf("audit block round trip: %+v vs %+v", cfg.Audit, back.Audit)
	}

	// An empty block selects the engine defaults at Run time.
	cfg, err = ConfigFromJSON([]byte(`{"nodes":1,"duration":"5s","audit":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Audit == nil || cfg.Audit.Every != 0 {
		t.Fatalf("empty audit block: %+v", cfg.Audit)
	}

	for _, bad := range []string{
		`{"audit":{"checkInterval":"0s"}}`,
		`{"audit":{"checkInterval":"-250ms"}}`,
	} {
		if _, err := ConfigFromJSON([]byte(bad)); err == nil {
			t.Errorf("loader accepted %s", bad)
		}
	}
	bad := Config{Nodes: 1, App: AppRpeak, Duration: sim.Second,
		Audit: &audit.Config{Limit: -1}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a negative audit limit")
	}
	bad.Audit = &audit.Config{Every: -sim.Second}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a negative audit interval")
	}
}
