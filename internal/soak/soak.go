// Package soak is the chaos harness behind cmd/soak: it derives
// randomized-but-deterministic hostile scenarios from integer seeds,
// runs each with every runtime invariant audited on both kernel
// schedulers plus the wheel-vs-heap differential oracle, and shrinks a
// failing scenario to a minimal reproducer ready to commit under
// scenarios/.
//
// Everything here is a pure function of the seed: Generate draws from a
// private seeded stream, Evaluate runs the deterministic simulator, and
// Shrink applies a fixed greedy pass order — so a failure report is
// reproducible from its seed alone, and shrinking the same failure
// twice yields the same minimal scenario.
package soak

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/approx"
	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/sim"
)

// AuditEvery is the sweep cadence for soak runs: tight enough to catch
// a transient violation near its cause in short scenarios.
const AuditEvery = 50 * sim.Millisecond

// Generate derives one chaos scenario from seed. The draw covers the
// axes that have historically interacted badly: every registered MAC
// protocol (with off-default tuning half the time) and both schedulers,
// every application, clock drift, lossy and bursty channels,
// crash/blackout/interference faults, slot reclamation, and scaled-down
// batteries with and without graceful degradation. Equal seeds produce
// equal configs.
func Generate(seed int64) core.Config {
	r := rand.New(rand.NewSource(seed))
	cfg := core.Config{
		Nodes:    1 + r.Intn(4),
		Seed:     seed,
		Warmup:   sim.Second,
		Duration: sim.Time(1500+r.Intn(1501)) * sim.Millisecond,
		Metrics:  true,
		Audit:    &audit.Config{Every: AuditEvery},
	}
	protos := mac.Protocols()
	switch cfg.Protocol = protos[r.Intn(len(protos))]; cfg.Protocol {
	case mac.ProtoStatic:
		cfg.Variant = mac.Static
		cfg.Cycle = sim.Time(20+r.Intn(21)) * sim.Millisecond
	case mac.ProtoDynamic:
		cfg.Variant = mac.Dynamic
	case mac.ProtoCSMA:
		if r.Intn(2) == 0 {
			minBE := 1 + r.Intn(3)
			cfg.MACParams = mac.Params{
				MinBE:       minBE,
				MaxBE:       minBE + 1 + r.Intn(3),
				MaxBackoffs: 2 + r.Intn(5),
			}
		}
	case mac.ProtoLPL:
		if r.Intn(2) == 0 {
			cfg.MACParams = mac.Params{
				CheckInterval: sim.Time(50+r.Intn(151)) * sim.Millisecond,
			}
		}
	}
	switch r.Intn(4) {
	case 0:
		cfg.App = core.AppStreaming
		cfg.SampleRateHz = float64(100 + r.Intn(151))
	case 1:
		cfg.App = core.AppRpeak
	case 2:
		cfg.App = core.AppHRV
	default:
		cfg.App = core.AppEEG
	}
	if r.Intn(2) == 0 {
		cfg.ClockDriftPPM = float64(20 + r.Intn(1981))
	}
	switch r.Intn(3) {
	case 0: // clean channel
	case 1:
		cfg.BER = []float64{1e-5, 1e-4, 5e-4, 2e-3}[r.Intn(4)]
	case 2:
		cfg.Burst = &channel.BurstModel{
			PGoodToBad: 0.01 + 0.1*r.Float64(),
			PBadToGood: 0.05 + 0.3*r.Float64(),
			BERGood:    0,
			BERBad:     []float64{1e-3, 5e-3, 2e-2}[r.Intn(3)],
		}
	}
	if r.Intn(2) == 0 {
		cfg.SlotReclaimCycles = 5 + r.Intn(8)
	}
	if r.Intn(5) < 2 {
		cell := battery.CR2032()
		cell.CapacityMAh *= 2e-5 * float64(1+r.Intn(10))
		cfg.Battery = &cell
		if r.Intn(2) == 0 {
			p := battery.DefaultDegradePolicy()
			cfg.Degrade = &p
		}
	}
	cfg.Faults = generateFaults(r, cfg.Nodes, cfg.Warmup+cfg.Duration)
	if r.Intn(4) == 0 {
		cfg.MaxEvents = GeneratedBudget
	}
	return cfg
}

// GeneratedBudget is the kernel event budget the generator arms on a
// quarter of its scenarios: ~50x the busiest corpus scenario's event
// count (measured ~20k events, ~5k events per simulated second), so a
// healthy run never trips it while a genuine event-loop runaway
// converts into a "budget" failure the shrinker can minimize.
const GeneratedBudget = 1_000_000

// generateFaults draws a schedule that fault.ValidateSchedule always
// accepts: at most one crash per node, windows inside the span.
func generateFaults(r *rand.Rand, nodes int, total sim.Time) []fault.Fault {
	var faults []fault.Fault
	// Crash instants land after the join transient and leave room for a
	// bounded reboot outage before the run ends.
	lo, hi := sim.Second+200*sim.Millisecond, total-700*sim.Millisecond
	for n := 1; n <= nodes; n++ {
		if r.Intn(3) != 0 {
			continue
		}
		f := fault.Fault{
			Kind: fault.KindCrash,
			Node: uint8(n),
			At:   lo + sim.Time(r.Int63n(int64(hi-lo))),
		}
		if r.Intn(2) == 0 {
			f.RebootAfter = sim.Time(100+r.Intn(501)) * sim.Millisecond
		}
		faults = append(faults, f)
	}
	if r.Intn(3) == 0 {
		at := lo + sim.Time(r.Int63n(int64(hi-lo)))
		ep := fmt.Sprintf("node%d", 1+r.Intn(nodes))
		f := fault.Fault{Kind: fault.KindBlackout, From: ep, To: "bs",
			At: at, Until: at + sim.Time(100+r.Intn(401))*sim.Millisecond}
		if r.Intn(2) == 0 {
			f.From, f.To = f.To, f.From
		}
		faults = append(faults, f)
	}
	if r.Intn(4) == 0 {
		at := lo + sim.Time(r.Int63n(int64(hi-lo)))
		faults = append(faults, fault.Fault{Kind: fault.KindInterference,
			At: at, Until: at + sim.Time(50+r.Intn(301))*sim.Millisecond})
	}
	return faults
}

// Failure describes why one soak run was rejected. Kind and Invariant
// form the failure signature the shrinker preserves.
type Failure struct {
	// Seed reproduces the scenario via Generate (0 for hand-built configs).
	Seed int64
	// Kind classifies the oracle that fired: "audit" (an invariant
	// violated), "differential" (wheel and heap runs diverged), "error"
	// (core.Run rejected or failed the config), "budget" (the kernel
	// event budget tripped — a runaway event loop) or "panic".
	Kind string
	// Invariant narrows the signature: the violated law's name for
	// audit failures, the diverging surface ("trace", "results") for
	// differential ones.
	Invariant string
	// Detail is the human-readable specifics of the first mismatch.
	Detail string
}

func (f *Failure) String() string {
	if f.Invariant != "" {
		return fmt.Sprintf("%s/%s: %s", f.Kind, f.Invariant, f.Detail)
	}
	return fmt.Sprintf("%s: %s", f.Kind, f.Detail)
}

// sameSignature reports whether g reproduces f's failure class — the
// shrinker's acceptance criterion. Details may differ (a shrunk
// scenario violates the same law at a different instant).
func sameSignature(f, g *Failure) bool {
	return g != nil && f.Kind == g.Kind && f.Invariant == g.Invariant
}

// Evaluate runs cfg through every oracle: the wheel-scheduler run with
// audits, the heap-scheduler run with audits, and the differential
// comparison between them. It returns nil when all pass.
func Evaluate(cfg core.Config) *Failure {
	f, _ := EvaluateCtx(context.Background(), cfg)
	return f
}

// EvaluateCtx is Evaluate under a context: cancellation is polled
// through the kernel's interrupt hook, so a long seed aborts mid-run
// within sim.DefaultPollEvery dispatched events rather than running to
// completion. A cancelled evaluation returns (nil, ctx.Err()) — it is
// neither a pass nor a failure. The hook observes only, so an
// uncancelled EvaluateCtx is bit-identical to Evaluate.
func EvaluateCtx(ctx context.Context, cfg core.Config) (*Failure, error) {
	fail := func(kind, invariant, detail string) *Failure {
		return &Failure{Seed: cfg.Seed, Kind: kind, Invariant: invariant, Detail: detail}
	}
	// Cancellation is also checked between runs: a seed short enough to
	// finish inside one poll interval would otherwise keep the
	// evaluation going through the second scheduler.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The event-by-event comparison below reads the retained ring.
	if cfg.TraceLimit == 0 {
		cfg.TraceLimit = core.DefaultTraceRing
	}
	wheel, f, err := runOne(ctx, cfg, core.SchedulerWheel)
	if err != nil {
		return nil, err
	}
	if f != nil {
		return f, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	heap, f, err := runOne(ctx, cfg, core.SchedulerHeap)
	if err != nil {
		return nil, err
	}
	if f != nil {
		return f, nil
	}

	we, he := wheel.Trace.Events(), heap.Trace.Events()
	if len(we) != len(he) {
		return fail("differential", "trace",
			fmt.Sprintf("trace length: wheel %d, heap %d", len(we), len(he))), nil
	}
	for i := range we {
		if we[i] != he[i] {
			return fail("differential", "trace",
				fmt.Sprintf("event %d: wheel %+v, heap %+v", i, we[i], he[i])), nil
		}
	}
	wheel.Trace, heap.Trace = nil, nil
	wheel.Config.Scheduler, heap.Config.Scheduler = "", ""
	if !reflect.DeepEqual(wheel, heap) {
		return fail("differential", "results", "results differ between schedulers"), nil
	}
	return nil, nil
}

// runOne executes cfg on one scheduler, converting a panic, a Run error,
// a budget trip or an audit violation into a Failure. A trip of the
// interrupt hook caused by ctx is cancellation, not a scenario failure.
func runOne(ctx context.Context, cfg core.Config, sched string) (res core.Results, f *Failure, ctxErr error) {
	defer func() {
		if r := recover(); r != nil {
			f = &Failure{Seed: cfg.Seed, Kind: "panic",
				Detail: fmt.Sprintf("%s scheduler: %v", sched, r)}
		}
	}()
	cfg.Scheduler = sched
	cfg.Interrupt = func() bool { return ctx.Err() != nil }
	res, err := core.Run(cfg)
	if err != nil {
		var bud *core.BudgetError
		if errors.As(err, &bud) {
			if bud.Cause == core.BudgetInterrupt && ctx.Err() != nil {
				return res, nil, ctx.Err()
			}
			return res, &Failure{Seed: cfg.Seed, Kind: "budget", Invariant: bud.Cause,
				Detail: fmt.Sprintf("%s scheduler: %v", sched, err)}, nil
		}
		return res, &Failure{Seed: cfg.Seed, Kind: "error",
			Detail: fmt.Sprintf("%s scheduler: %v", sched, err)}, nil
	}
	if res.Audit.Failed() {
		v := res.Audit.Violations[0]
		return res, &Failure{Seed: cfg.Seed, Kind: "audit", Invariant: v.Invariant,
			Detail: fmt.Sprintf("%s scheduler: %s (%d violation(s) total)",
				sched, v, uint64(len(res.Audit.Violations))+res.Audit.Dropped)}, nil
	}
	return res, nil, nil
}

// minDuration floors the duration-halving shrink pass: shorter runs
// rarely complete a join, so the reproducer would mutate into a
// different failure.
const minDuration = 500 * sim.Millisecond

// minBudget floors the event-budget-halving shrink pass: a budget below
// the power-on transient's event count would trip during startup and
// mask the original runaway.
const minBudget = 1000

// Shrink greedily reduces cfg while eval keeps reproducing want's
// failure signature, and returns the smallest accepted config. The pass
// order is fixed — drop faults, drop nodes, zero drift, clean the
// channel, remove the battery, disable reclamation, reset MAC tuning to
// protocol defaults, halve the duration — and each pass re-runs until
// the whole sweep reaches a fixpoint, so the result is deterministic in
// (cfg, eval, want). The MAC protocol itself is never changed: a
// reproducer must fail the same MAC it was found on.
func Shrink(cfg core.Config, eval func(core.Config) *Failure, want *Failure) core.Config {
	if want == nil {
		return cfg
	}
	keeps := func(c core.Config) bool { return sameSignature(want, eval(c)) }
	cur := cfg
	for changed := true; changed; {
		changed = false
		// Drop scheduled faults one at a time.
		for i := 0; i < len(cur.Faults); {
			cand := cur
			cand.Faults = dropFault(cur.Faults, i)
			if keeps(cand) {
				cur, changed = cand, true
			} else {
				i++
			}
		}
		// Remove the highest-numbered node while nothing references it.
		for cur.Nodes > 1 && !referencesNode(cur.Faults, cur.Nodes) {
			cand := cur
			cand.Nodes--
			if !keeps(cand) {
				break
			}
			cur, changed = cand, true
		}
		// Zero the remaining scalar chaos axes, one at a time.
		if !approx.Unset(cur.ClockDriftPPM) {
			cand := cur
			cand.ClockDriftPPM = 0
			if keeps(cand) {
				cur, changed = cand, true
			}
		}
		if !approx.Unset(cur.BER) || cur.Burst != nil {
			cand := cur
			cand.BER, cand.Burst = 0, nil
			if keeps(cand) {
				cur, changed = cand, true
			}
		}
		if cur.Battery != nil {
			cand := cur
			cand.Battery, cand.Degrade, cand.BrownoutV = nil, nil, 0
			if keeps(cand) {
				cur, changed = cand, true
			}
		}
		if cur.SlotReclaimCycles != 0 {
			cand := cur
			cand.SlotReclaimCycles = 0
			if keeps(cand) {
				cur, changed = cand, true
			}
		}
		if cur.MACParams != (mac.Params{}) {
			cand := cur
			cand.MACParams = mac.Params{}
			if keeps(cand) {
				cur, changed = cand, true
			}
		}
		// Drop the event budget outright when it is not load-bearing;
		// when it is (a "budget" failure), halve it toward the floor so
		// the reproducer trips as early as possible.
		if cur.MaxEvents != 0 {
			cand := cur
			cand.MaxEvents = 0
			if keeps(cand) {
				cur, changed = cand, true
			}
		}
		for cur.MaxEvents/2 >= minBudget {
			cand := cur
			cand.MaxEvents = cur.MaxEvents / 2
			if !keeps(cand) {
				break
			}
			cur, changed = cand, true
		}
		// Halve the measurement window down to the floor.
		for cur.Duration/2 >= minDuration {
			cand := cur
			cand.Duration = cur.Duration / 2
			if !keeps(cand) {
				break
			}
			cur, changed = cand, true
		}
	}
	return cur
}

// dropFault returns faults without element i, never aliasing the input.
func dropFault(faults []fault.Fault, i int) []fault.Fault {
	if len(faults) == 1 {
		return nil
	}
	out := make([]fault.Fault, 0, len(faults)-1)
	out = append(out, faults[:i]...)
	return append(out, faults[i+1:]...)
}

// referencesNode reports whether any fault targets node n, which blocks
// the node-removal shrink pass (the schedule would become invalid).
func referencesNode(faults []fault.Fault, n int) bool {
	name := fmt.Sprintf("node%d", n)
	for _, f := range faults {
		if int(f.Node) == n || f.From == name || f.To == name {
			return true
		}
	}
	return false
}
