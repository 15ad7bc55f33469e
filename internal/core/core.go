// Package core is the simulation framework's public façade: it assembles
// a complete Body Area Network — base station plus sensor nodes running a
// chosen application over a chosen TDMA variant — runs it for a warm-up
// (join transient) and a measurement window, and reports per-node energy
// split by component and power state, the paper's four loss categories,
// and the protocol statistics.
//
// This is the counterpart of the paper's TOSSIM-based framework (§4): an
// event-driven simulation of the whole OS/MAC/radio stack from which
// E = I·Vdd·t energy figures are extracted per component.
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/app"
	"repro/internal/approx"
	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/body"
	"repro/internal/channel"
	"repro/internal/ecg"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
)

// AppKind selects the node application.
type AppKind string

const (
	// AppStreaming is the 2-channel ECG streaming application (§5.1).
	AppStreaming AppKind = "streaming"
	// AppRpeak is the on-node beat detection application (§5.2).
	AppRpeak AppKind = "rpeak"
	// AppHRV is the on-node heart-rate-variability summariser, the
	// framework's extension one step further down the preprocessing
	// path: one statistics packet per window of beats.
	AppHRV AppKind = "hrv"
	// AppEEG is the 24-channel EEG activity monitor: per-channel
	// amplitude summaries chunked into a burst of frames per window,
	// exercising the ASIC's full channel count.
	AppEEG AppKind = "eeg"
)

// Config describes one BAN scenario.
type Config struct {
	// Variant is an input alias for Protocol that Validate resolves; a
	// Dynamic Variant next to any other Protocol is rejected.
	Variant mac.Variant
	// Protocol selects the MAC protocol by registry name ("static",
	// "dynamic", "csma", "lpl"); empty selects Variant's TDMA protocol.
	Protocol mac.Protocol
	// MACParams carries the protocol's tuning knobs (CSMA backoff
	// bounds, LPL check interval); the zero value selects each
	// protocol's documented defaults.
	MACParams mac.Params
	// Nodes is the number of sensor nodes (the paper's case studies use
	// 1..5).
	Nodes int
	// Cycle is the TDMA cycle length for the static variant; ignored for
	// dynamic TDMA, whose cycle is (Nodes+1) x 10 ms once all joins
	// complete.
	Cycle sim.Time
	// App selects the application.
	App AppKind
	// SampleRateHz is the per-channel sampling rate. For streaming it is
	// the Table 1/2 sweep parameter; for Rpeak it defaults to the
	// algorithm's fixed 200 Hz.
	SampleRateHz float64
	// HeartRateBPM drives the synthetic ECG (default 75, the paper's
	// input).
	HeartRateBPM float64
	// Duration is the measurement window (the paper reports 60 s).
	Duration sim.Time
	// Warmup runs before measurement so joins complete; energy and
	// statistics reset at its end. Default 3 s.
	Warmup sim.Time
	// Seed drives all randomness. Equal (Config, Seed) pairs produce
	// byte-identical results.
	Seed int64
	// BER applies a uniform bit error rate to every link (default 0).
	BER float64
	// Burst, when non-nil, applies a Gilbert-Elliott bursty error
	// process to every link instead of the uniform BER (on-body links
	// fade in runs as the wearer moves). Mutually exclusive with BER.
	Burst *channel.BurstModel
	// Placements assigns each node an on-body site; when set (length
	// must equal Nodes), every link gets the body model's site- and
	// motion-dependent burst process instead of BER/Burst. The base
	// station rides at the hip.
	Placements []body.Site
	// Motion is the wearer's activity level for the body model.
	Motion body.Motion
	// TraceLimit is the size of the retained event ring (Results.Trace
	// Events/Filter/ByNode and the Chrome trace export). 0, the default,
	// keeps no ring: the per-(node, kind) counters, the histograms and
	// Trace.Recorded stay exact, Trace.Dropped stays 0, and steady-state
	// events skip formatting their details. Readers of the timeline opt
	// in with a positive cap, typically DefaultTraceRing.
	TraceLimit int
	// StartStagger separates consecutive node power-ons (default 5 ms).
	// Large values let early nodes reach steady state while later ones
	// are still searching — the regime where overhearing and idle
	// listening dominate.
	StartStagger sim.Time
	// ClockDriftPPM gives each node an oscillator error of exactly this
	// magnitude with a per-node random sign (deterministic per seed) —
	// the worst case of a part tolerance band. The beacon guard margins
	// must absorb drift x cycle; crystals sit at tens of ppm, the
	// MSP430 DCO at 1-3%.
	ClockDriftPPM float64
	// Profile overrides the node hardware profile; nil selects
	// platform.IMEC().
	Profile *platform.Profile
	// Faults is the deterministic fault schedule (crashes, link
	// blackouts, interference bursts), with instants measured from
	// simulation start — warmup included.
	Faults []fault.Fault
	// SlotReclaimCycles makes the base station free the slot of a node
	// silent for this many consecutive beacon cycles (0 disables — the
	// default, since sparse-sending applications like HRV legitimately
	// skip many cycles).
	SlotReclaimCycles int
	// Battery, when non-nil, gives every node a live cell of this rating:
	// the per-component energy ledger debits it as the run progresses, and
	// a node whose terminal voltage sags below BrownoutV crashes for good
	// (an emergent brownout fault, reported alongside injected ones).
	Battery *battery.Battery
	// BrownoutV is the supply-rail voltage below which a node browns out.
	// 0 selects the cell's default cutoff. Requires Battery.
	BrownoutV float64
	// Degrade, when non-nil, enables graceful low-battery degradation at
	// the policy's state-of-charge watermarks: duty-cycle stretching,
	// application sample-rate downshift, then beacon-only parking (the
	// node releases its slot back to the base station). Requires Battery.
	Degrade *battery.DegradePolicy
	// Metrics enables the structured observability snapshot: when true,
	// Results.Metrics carries per-(node, component, state) time/energy
	// rows, exact event counters and latency histograms, assembled over
	// the measurement window. Collection never changes the simulation,
	// only what is reported.
	Metrics bool
	// Scheduler selects the kernel's event scheduler: "" or
	// SchedulerWheel for the pooled hierarchical timer wheel (the
	// default), SchedulerHeap for the original binary heap retained as
	// the reference implementation. Both dispatch in the identical
	// (at, seq) order, so results are bit-equal; the heap exists for
	// differential validation, not for production runs.
	Scheduler string
	// MaxEvents bounds the kernel's dispatched-event count over the whole
	// run, warmup included (0 = unlimited). A run that reaches the budget
	// aborts with a *BudgetError instead of spinning forever — the
	// deterministic half of the batch runner's watchdog: equal
	// (Config, Seed) runs trip at the identical event, on either
	// scheduler.
	MaxEvents uint64
	// Interrupt, when non-nil, is polled by the kernel on a fixed
	// dispatch cadence (sim.DefaultPollEvery events) and aborts the run
	// with a *BudgetError when it returns true. It is the external abort
	// hook — wall-clock watchdogs and context cancellation plug in here —
	// and must be a pure observer: it may never touch simulation state,
	// so an armed-but-untripped hook leaves results bit-identical.
	// Never serialized, and stripped from Results.Config so result
	// comparisons stay value-based.
	Interrupt func() bool `json:"-"`
	// Audit, when non-nil, enables the runtime invariant-audit engine:
	// conservation and protocol laws registered by every component
	// (energy/battery books, frame conservation, slot exclusivity, clock
	// and generation monotonicity, event-pool balance) are swept on the
	// configured in-simulation cadence and once more at run end, with
	// violations reported as structured rows in Results.Audit. Audits
	// observe only: a run produces byte-identical results with auditing
	// on or off, apart from Results.Audit itself and the KernelEvents
	// count (the sweep ticks are kernel events).
	Audit *audit.Config
}

// DefaultTraceRing is the event-ring size readers of the timeline opt
// into with Config.TraceLimit: it holds the whole join sequence and tens
// of seconds of steady state of a 5-node network.
const DefaultTraceRing = 200000

// Scheduler values accepted by Config.Scheduler.
const (
	SchedulerWheel = "wheel"
	SchedulerHeap  = "heap"
)

// Validate checks the configuration, applying documented defaults.
func (c *Config) Validate() error {
	// Node IDs are one byte, and 0 is no node.
	if c.Nodes <= 0 || c.Nodes > math.MaxUint8 {
		return fmt.Errorf("core: Nodes must be in 1..%d, got %d", math.MaxUint8, c.Nodes)
	}
	// flag.Float64 parses NaN and ±Inf, and NaN passes every range
	// check below, so non-finite inputs stop here.
	type param struct {
		name string
		v    float64
	}
	params := []param{{"SampleRateHz", c.SampleRateHz}, {"HeartRateBPM", c.HeartRateBPM},
		{"BER", c.BER}, {"ClockDriftPPM", c.ClockDriftPPM}, {"BrownoutV", c.BrownoutV}}
	if b := c.Burst; b != nil {
		params = append(params, param{"Burst.PGoodToBad", b.PGoodToBad}, param{"Burst.PBadToGood", b.PBadToGood},
			param{"Burst.BERGood", b.BERGood}, param{"Burst.BERBad", b.BERBad})
	}
	if b := c.Battery; b != nil {
		params = append(params, param{"Battery.CapacityMAh", b.CapacityMAh},
			param{"Battery.VoltageV", b.VoltageV}, param{"Battery.Efficiency", b.Efficiency})
	}
	for _, p := range params {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("core: %s must be finite, got %v", p.name, p.v)
		}
	}
	if c.Protocol == "" {
		c.Protocol = c.Variant.Protocol()
	} else if c.Variant == mac.Dynamic && c.Protocol != mac.ProtoDynamic {
		return fmt.Errorf("core: Variant dynamic contradicts Protocol %q", c.Protocol)
	}
	desc, ok := mac.Lookup(c.Protocol)
	if !ok {
		return fmt.Errorf("core: unknown MAC protocol %q (registered: %v)", c.Protocol, mac.Protocols())
	}
	if err := desc.Validate(c.MACParams); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Protocol == mac.ProtoStatic && c.Cycle <= 0 {
		return fmt.Errorf("core: static TDMA needs a positive Cycle")
	}
	if c.Cycle < 0 {
		return fmt.Errorf("core: negative Cycle %v", c.Cycle)
	}
	if c.Protocol == mac.ProtoCSMA && c.Cycle == 0 {
		c.Cycle = mac.DefaultCSMACycle
	}
	if floor := mac.MinCycle(c.Protocol, platform.BaseStation()); c.Cycle < floor {
		return fmt.Errorf("core: %s Cycle %v below the base station's %v beacon turnaround", c.Protocol, c.Cycle, floor)
	}
	// Negative times would reach the kernel as horizons or delays in the
	// past, which it rejects by panicking; scenario files are untrusted
	// input, so the gate is here.
	if c.Warmup < 0 {
		return fmt.Errorf("core: negative Warmup %v", c.Warmup)
	}
	if c.StartStagger < 0 {
		return fmt.Errorf("core: negative StartStagger %v", c.StartStagger)
	}
	if c.SampleRateHz < 0 {
		return fmt.Errorf("core: negative SampleRateHz %v", c.SampleRateHz)
	}
	if c.HeartRateBPM < 0 {
		return fmt.Errorf("core: negative HeartRateBPM %v", c.HeartRateBPM)
	}
	if c.ClockDriftPPM < 0 {
		return fmt.Errorf("core: negative ClockDriftPPM %v", c.ClockDriftPPM)
	}
	if c.TraceLimit < 0 {
		return fmt.Errorf("core: negative TraceLimit %d", c.TraceLimit)
	}
	switch c.App {
	case AppStreaming:
		if c.SampleRateHz <= 0 {
			return fmt.Errorf("core: streaming needs a positive SampleRateHz")
		}
	case AppRpeak, AppHRV:
		if approx.Unset(c.SampleRateHz) {
			c.SampleRateHz = 200
		}
	case AppEEG:
		if approx.Unset(c.SampleRateHz) {
			c.SampleRateHz = 128
		}
	default:
		return fmt.Errorf("core: unknown app %q (want streaming, rpeak, hrv or eeg)", c.App)
	}
	if approx.Unset(c.HeartRateBPM) {
		c.HeartRateBPM = 75
	}
	if c.Duration <= 0 {
		return fmt.Errorf("core: Duration must be positive")
	}
	if c.Warmup == 0 {
		c.Warmup = 3 * sim.Second
	}
	if c.BER < 0 || c.BER >= 1 {
		return fmt.Errorf("core: BER %v out of [0,1)", c.BER)
	}
	if c.Burst != nil && c.BER > 0 {
		return fmt.Errorf("core: BER and Burst are mutually exclusive")
	}
	if b := c.Burst; b != nil {
		for _, p := range []float64{b.PGoodToBad, b.PBadToGood} {
			if p < 0 || p > 1 {
				return fmt.Errorf("core: burst transition probability %v out of [0,1]", p)
			}
		}
		for _, ber := range []float64{b.BERGood, b.BERBad} {
			if ber < 0 || ber >= 1 {
				return fmt.Errorf("core: burst BER %v out of [0,1)", ber)
			}
		}
	}
	if len(c.Placements) > 0 {
		if len(c.Placements) != c.Nodes {
			return fmt.Errorf("core: %d placements for %d nodes", len(c.Placements), c.Nodes)
		}
		if c.BER > 0 || c.Burst != nil {
			return fmt.Errorf("core: Placements and BER/Burst are mutually exclusive")
		}
	}
	switch c.Scheduler {
	case "", SchedulerWheel, SchedulerHeap:
	default:
		return fmt.Errorf("core: unknown scheduler %q", c.Scheduler)
	}
	if c.StartStagger == 0 {
		c.StartStagger = 5 * sim.Millisecond
	}
	if c.SlotReclaimCycles < 0 {
		return fmt.Errorf("core: negative SlotReclaimCycles %d", c.SlotReclaimCycles)
	}
	if c.Battery == nil {
		if !approx.Unset(c.BrownoutV) {
			return fmt.Errorf("core: BrownoutV %v without a Battery", c.BrownoutV)
		}
		if c.Degrade != nil {
			return fmt.Errorf("core: Degrade policy without a Battery")
		}
	} else {
		b := *c.Battery
		if b.CapacityMAh <= 0 || b.VoltageV <= 0 {
			return fmt.Errorf("core: battery needs positive capacity and voltage, got %v mAh at %v V", b.CapacityMAh, b.VoltageV)
		}
		if b.Efficiency < 0 || b.Efficiency > 1 {
			return fmt.Errorf("core: battery efficiency %v out of [0,1]", b.Efficiency)
		}
		if approx.Unset(c.BrownoutV) {
			c.BrownoutV = b.DefaultCutoffV()
		}
		// The threshold must be crossable: at or above the fresh-cell
		// voltage the node dies instantly, at or below the exhausted-cell
		// voltage it never browns out (the SOC floor catches it instead,
		// but the configuration is almost certainly a unit mistake).
		if lo, hi := b.VoltageAt(0), b.VoltageAt(1); c.BrownoutV <= lo || c.BrownoutV >= hi {
			return fmt.Errorf("core: BrownoutV %.3g V outside the cell's (%.3g, %.3g) V discharge range", c.BrownoutV, lo, hi)
		}
		if c.Degrade != nil {
			// Validate a copy so a policy value shared across configs is
			// not mutated behind the caller's back.
			p := *c.Degrade
			if err := p.Validate(); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			c.Degrade = &p
		}
	}
	if a := c.Audit; a != nil {
		if a.Every < 0 {
			return fmt.Errorf("core: negative audit check interval %v", a.Every)
		}
		if a.Limit < 0 {
			return fmt.Errorf("core: negative audit violation limit %d", a.Limit)
		}
	}
	// The fault schedule is checked against the full simulated span, so
	// the defaults above (Warmup in particular) must already be applied.
	if err := fault.ValidateSchedule(c.Faults, c.Nodes, c.Warmup+c.Duration); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// NodeResult is the measurement-window outcome for one sensor node.
type NodeResult struct {
	Name   string
	ID     uint8
	Energy energy.Report
	Mac    mac.Stats
	Radio  radio.Stats
	// PacketsSent/Dropped are application-level counters.
	PacketsSent    uint64
	PacketsDropped uint64
	// Beats is the Rpeak detection count (0 for streaming).
	Beats uint64
	// Availability is the fraction of the measurement window the node
	// held a slot (1.0 in a fault-free steady-state run).
	Availability float64
	// DeliveryRatio is acknowledged/sent data frames over the window
	// (1.0 when nothing was sent).
	DeliveryRatio float64
	// Battery is the end-of-run battery summary (nil unless the scenario
	// configures a battery).
	Battery *battery.Report
}

// RadioMJ reports the node's radio energy in millijoules — the paper's
// "E Radio" column.
func (n NodeResult) RadioMJ() float64 {
	c, _ := n.Energy.Component(platform.ComponentRadio)
	return c.EnergyMJ()
}

// MCUMJ reports the node's microcontroller energy in millijoules — the
// paper's "E µC" column.
func (n NodeResult) MCUMJ() float64 {
	c, _ := n.Energy.Component(platform.ComponentMCU)
	return c.EnergyMJ()
}

// ASICMJ reports the front-end energy (excluded from the paper's
// validation tables but part of the node budget).
func (n NodeResult) ASICMJ() float64 {
	c, _ := n.Energy.Component(platform.ComponentASIC)
	return c.EnergyMJ()
}

// TotalMJ reports radio + MCU, the quantity Figure 4 compares.
func (n NodeResult) TotalMJ() float64 { return n.RadioMJ() + n.MCUMJ() }

// Results is the outcome of one scenario run.
type Results struct {
	Config   Config
	Nodes    []NodeResult
	BSEnergy energy.Report
	BSStats  mac.BSStats
	Channel  channel.Stats
	// Trace is the in-memory event log. Excluded from serialization:
	// journaled point records carry every numeric result bit-exactly but
	// not the trace, so a restored point has a nil Trace.
	Trace *metrics.Recorder `json:"-"`
	// JoinedAll reports whether every node held a slot at measurement
	// start.
	JoinedAll bool
	// Faults reports the per-fault outcomes, in schedule order (nil when
	// the scenario injects none).
	Faults []fault.Outcome
	// Metrics is the structured observability snapshot (nil unless
	// Config.Metrics is set).
	Metrics *metrics.Snapshot
	// KernelEvents counts the discrete events the kernel dispatched over
	// the whole run — the simulator's own work metric, which the runner's
	// progress/throughput reporting feeds from.
	KernelEvents uint64
	// TimeToFirstDeath is the instant (from simulation start) the first
	// node browned out; 0 when every node survived the run.
	TimeToFirstDeath sim.Time
	// NetworkLifetime is the instant the network fell below half its
	// nodes alive — the standard WSN lifetime criterion; 0 when at least
	// half the nodes outlived the run.
	NetworkLifetime sim.Time
	// Audit is the invariant-audit summary (nil unless Config.Audit is
	// set). A run whose laws all held has Audit.Failed() == false.
	Audit *audit.Summary
}

// Node returns the result for the paper's reference node (ID 1).
func (r Results) Node() NodeResult { return r.Nodes[0] }

// Run builds and executes the scenario.
func Run(cfg Config) (Results, error) {
	if err := cfg.Validate(); err != nil {
		return Results{}, err
	}
	prof := platform.IMEC()
	if cfg.Profile != nil {
		prof = *cfg.Profile
	}

	k := sim.NewKernel(cfg.Seed)
	if cfg.Scheduler == SchedulerHeap {
		k = sim.NewHeapKernel(cfg.Seed)
	}
	if cfg.MaxEvents > 0 || cfg.Interrupt != nil {
		k.SetWatchdog(cfg.MaxEvents, cfg.Interrupt, 0)
	}
	ch := channel.New(k)
	ring := cfg.TraceLimit
	if ring == 0 {
		ring = metrics.NoRing
	}
	tracer := metrics.NewRecorder(ring)

	base := node.NewBase(k, ch, tracer, mac.BSConfig{Protocol: cfg.Protocol, Params: cfg.MACParams,
		StaticCycle: cfg.Cycle, ReclaimAfter: cfg.SlotReclaimCycles})

	signal := ecg.NewGenerator(ecg.Params{
		HeartRateBPM: cfg.HeartRateBPM,
		JitterFrac:   0.02,
		NoiseAmp:     0.02,
		BaselineAmp:  0.05,
		Seed:         cfg.Seed,
	})
	if cfg.Protocol != mac.ProtoLPL {
		// Nodes that join within a few cycles of each other trail the
		// leader by a dozen sample instants at most.
		signal.SizeMemo(32)
	}
	eeg := ecg.NewEEGGenerator(ecg.EEGParams{Seed: cfg.Seed})

	var build func(env app.Env) app.App
	switch cfg.App {
	case AppStreaming:
		build = func(env app.Env) app.App {
			return app.NewStreaming(env, app.StreamingConfig{SampleRateHz: cfg.SampleRateHz, Channels: 2, Signal: signal})
		}
	case AppRpeak:
		build = func(env app.Env) app.App {
			return app.NewRpeak(env, app.RpeakConfig{SampleRateHz: cfg.SampleRateHz, Channels: 2, Signal: signal})
		}
	case AppHRV:
		build = func(env app.Env) app.App {
			return app.NewHRV(env, app.HRVConfig{SampleRateHz: cfg.SampleRateHz, Signal: signal})
		}
	case AppEEG:
		build = func(env app.Env) app.App {
			return app.NewEEGPower(env, app.EEGPowerConfig{Channels: 24, SampleRateHz: cfg.SampleRateHz, Signal: eeg})
		}
	}

	sensors := make([]*node.Sensor, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		nc := mac.NodeConfig{Protocol: cfg.Protocol, Params: cfg.MACParams, NodeID: uint8(i + 1),
			Profile: &prof, ClockDriftPPM: cfg.ClockDriftPPM}
		// Each drifting node draws its sign; a drift-free run draws nothing.
		if nc.ClockDriftPPM > 0 && k.Rand().Intn(2) == 0 {
			nc.ClockDriftPPM = -nc.ClockDriftPPM
		}
		var opts []node.Option
		if cfg.Battery != nil {
			opts = append(opts, node.WithBattery(*cfg.Battery, cfg.BrownoutV, cfg.Degrade))
		}
		s := node.NewSensor(k, ch, tracer, nc, opts...)
		s.AttachApp(build)
		sensors[i] = s
	}
	if referenceHandOffs {
		base.MCU.Reference()
		for _, s := range sensors {
			s.MCU.Reference()
		}
	}

	if cfg.BER > 0 || cfg.Burst != nil {
		names := []string{"bs"}
		for _, s := range sensors {
			names = append(names, s.Name)
		}
		link := channel.Link{Connected: true, BER: cfg.BER, Burst: cfg.Burst}
		for _, from := range names {
			for _, to := range names {
				if from != to {
					ch.SetLink(from, to, link)
				}
			}
		}
	}
	if len(cfg.Placements) > 0 {
		// The base station rides at the hip; every path gets the body
		// model for its site pair under the configured motion.
		site := map[string]body.Site{"bs": body.Hip}
		for i, s := range sensors {
			site[s.Name] = cfg.Placements[i]
		}
		for fromName, fromSite := range site {
			for toName, toSite := range site {
				if fromName == toName {
					continue
				}
				m := body.LinkModel(fromSite, toSite, cfg.Motion)
				ch.SetLink(fromName, toName, channel.Link{Connected: true, Burst: &m})
			}
		}
	}

	// The fault schedule is armed before power-on so every injection
	// event holds a deterministic position in the kernel's order. A
	// battery also wants the injector: brownouts report through the same
	// outcome list as injected faults.
	var inj *fault.Injector
	if len(cfg.Faults) > 0 || cfg.Battery != nil {
		inj = fault.New(k, ch, tracer)
		for _, s := range sensors {
			s := s
			inj.AddNode(s.ID, fault.NodeHooks{
				Crash:    s.Crash,
				Reboot:   s.Reboot,
				OnJoined: s.Mac.OnJoined,
				Stats:    s.Mac.Stats,
			})
			if cfg.Battery != nil {
				id := s.ID
				s.OnBrownout(func() { inj.NoteBrownout(id) })
			}
		}
		inj.Install(cfg.Faults)
	}

	// The audit engine observes the assembled network; its sweep ticks
	// are ordinary kernel events, and every registered law holds at any
	// event boundary, so the tick's position among same-instant events
	// does not matter.
	var eng *audit.Engine
	if cfg.Audit != nil {
		desc, _ := mac.Lookup(cfg.Protocol)
		eng = audit.New(k, *cfg.Audit)
		registerAudits(eng, k, desc.Caps, base, sensors)
		eng.Start()
	}

	// Power-on: the base station first, then the nodes staggered a few
	// milliseconds apart (same power strip, slightly different boot
	// times) so their first SSRs rarely collide.
	// One handler starts them all: the base station at argument 0, and
	// sensor i at i+1.
	start := func(k *sim.Kernel) {
		if i := k.Arg(); i > 0 {
			sensors[i-1].Start()
			return
		}
		base.Start()
	}
	k.ScheduleAt(k.Now(), start)
	for i := range sensors {
		k.ScheduleArgAt(k.Now()+sim.Time(i+1)*cfg.StartStagger, start, uint64(i+1))
	}

	// Warm-up: joins and pipeline fill.
	k.RunUntil(cfg.Warmup)
	if err := budgetErr(k); err != nil {
		return Results{}, err
	}
	joinedAll := true
	for _, s := range sensors {
		if !s.Mac.Joined() {
			joinedAll = false
		}
	}
	for _, s := range sensors {
		s.ResetAccounting(k.Now())
	}
	base.ResetAccounting(k.Now())
	// Counters and histograms cover the measurement window, like the
	// component statistics; the event log keeps the join transient.
	tracer.ResetDerived()

	// Measurement window.
	k.RunUntil(cfg.Warmup + cfg.Duration)
	if err := budgetErr(k); err != nil {
		return Results{}, err
	}

	// Results must stay value-comparable (reflect.DeepEqual treats any
	// non-nil func field as unequal) and serializable, so the abort hook
	// never rides along in the embedded config.
	cfg.Interrupt = nil
	res := Results{
		Config:    cfg,
		Nodes:     make([]NodeResult, 0, len(sensors)),
		BSStats:   base.BS.Stats(),
		Channel:   ch.Stats(),
		Trace:     tracer,
		JoinedAll: joinedAll,
	}
	if inj != nil {
		res.Faults = inj.Finalize()
	}
	res.BSEnergy = base.FinalizeEnergy(k.Now())
	for _, s := range sensors {
		nr := NodeResult{
			Name:   s.Name,
			ID:     s.ID,
			Energy: s.FinalizeEnergy(k.Now()),
			Mac:    s.Mac.Stats(),
			Radio:  s.Radio.Stats(),
		}
		av := float64(s.Mac.JoinedTime()) / float64(cfg.Duration)
		if av < 0 {
			av = 0
		} else if av > 1 {
			av = 1
		}
		nr.Availability = av
		nr.DeliveryRatio = 1
		if nr.Mac.DataSent > 0 {
			nr.DeliveryRatio = float64(nr.Mac.DataAcked) / float64(nr.Mac.DataSent)
		}
		nr.Battery = s.FinalizeBattery(k.Now())
		c := s.App.Counts()
		nr.PacketsSent, nr.PacketsDropped, nr.Beats = c.Sent, c.Dropped, c.Beats
		res.Nodes = append(res.Nodes, nr)
	}
	// Lifetime figures from the brownout instants. Deaths are collected in
	// node-ID order and sorted by time, so the result is independent of
	// everything but the battery histories themselves.
	var deaths []sim.Time
	for _, nr := range res.Nodes {
		if nr.Battery != nil && nr.Battery.Died {
			deaths = append(deaths, nr.Battery.DiedAt)
		}
	}
	if len(deaths) > 0 {
		sort.Slice(deaths, func(i, j int) bool { return deaths[i] < deaths[j] })
		res.TimeToFirstDeath = deaths[0]
		// The network is alive while at least half its nodes are; the
		// lifetime ends when the (floor(N/2)+1)-th node dies.
		if need := cfg.Nodes/2 + 1; len(deaths) >= need {
			res.NetworkLifetime = deaths[need-1]
		}
	}
	res.KernelEvents = k.Executed()
	if eng != nil {
		res.Audit = eng.Finish(k.Now())
	}
	if cfg.Metrics {
		res.Metrics = assembleMetrics(&res)
	}
	return res, nil
}

// referenceHandOffs makes every MCU of a run elide no completion
// (mcu.MCU.Reference): each hand-off completes through its event, the
// reference the elided runs are tested against. Only tests set it.
var referenceHandOffs bool
