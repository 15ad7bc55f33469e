// Command bansim runs one Body Area Network scenario on the energy
// simulation framework and prints the per-node energy report.
//
// Examples:
//
//	bansim -app streaming -mac static -nodes 5 -cycle 30ms -fs 205 -duration 60s
//	bansim -app rpeak -mac dynamic -nodes 3 -duration 60s -format json
//	bansim -app streaming -mac dynamic -nodes 3 -fs 205 -duration 20s \
//	    -crash 2@8s+3s -reclaim 10
//	bansim -app streaming -nodes 2 -cycle 30ms -fs 205 \
//	    -blackout "node1>bs@5s-6s" -jam 9s-9.5s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/approx"
	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sim"
)

// parseSpan parses "5s-6s" into a start/end instant pair.
func parseSpan(s string) (from, to sim.Time, err error) {
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("want <start>-<end>, got %q", s)
	}
	dlo, err := time.ParseDuration(lo)
	if err != nil {
		return 0, 0, err
	}
	dhi, err := time.ParseDuration(hi)
	if err != nil {
		return 0, 0, err
	}
	return sim.FromDuration(dlo), sim.FromDuration(dhi), nil
}

// faultFlags collects repeatable -crash/-blackout/-jam specifications.
func faultFlags(faults *[]fault.Fault) {
	flag.Func("crash", "crash spec <node>@<at>[+<outage>], e.g. 2@10s+2s (repeatable)",
		func(s string) error {
			nodePart, rest, ok := strings.Cut(s, "@")
			if !ok {
				return fmt.Errorf("want <node>@<at>[+<outage>], got %q", s)
			}
			id, err := strconv.ParseUint(nodePart, 10, 8)
			if err != nil {
				return fmt.Errorf("bad node %q: %v", nodePart, err)
			}
			atPart, outagePart, hasReboot := strings.Cut(rest, "+")
			at, err := time.ParseDuration(atPart)
			if err != nil {
				return err
			}
			f := fault.Fault{Kind: fault.KindCrash, Node: uint8(id), At: sim.FromDuration(at)}
			if hasReboot {
				outage, err := time.ParseDuration(outagePart)
				if err != nil {
					return err
				}
				f.RebootAfter = sim.FromDuration(outage)
			}
			*faults = append(*faults, f)
			return nil
		})
	flag.Func("blackout", "link blackout <from>><to>@<start>-<end>, e.g. node1>bs@5s-6s (repeatable)",
		func(s string) error {
			path, span, ok := strings.Cut(s, "@")
			if !ok {
				return fmt.Errorf("want <from>><to>@<start>-<end>, got %q", s)
			}
			from, to, ok := strings.Cut(path, ">")
			if !ok {
				return fmt.Errorf("want <from>><to>, got %q", path)
			}
			at, until, err := parseSpan(span)
			if err != nil {
				return err
			}
			*faults = append(*faults, fault.Fault{
				Kind: fault.KindBlackout, From: from, To: to, At: at, Until: until,
			})
			return nil
		})
	flag.Func("jam", "interference burst <start>-<end>, e.g. 9s-9.5s (repeatable)",
		func(s string) error {
			at, until, err := parseSpan(s)
			if err != nil {
				return err
			}
			*faults = append(*faults, fault.Fault{Kind: fault.KindInterference, At: at, Until: until})
			return nil
		})
}

// parseBattery resolves "cr2032" / "lipo160@0.001" into a cell, with the
// optional @scale multiplying the rated capacity.
func parseBattery(spec string) (*battery.Battery, error) {
	name, scalePart, hasScale := strings.Cut(spec, "@")
	b, ok := battery.Preset(name)
	if !ok {
		return nil, fmt.Errorf("unknown battery %q (want cr2032 or lipo160)", name)
	}
	if hasScale {
		scale, err := strconv.ParseFloat(scalePart, 64)
		if err != nil || scale <= 0 {
			return nil, fmt.Errorf("bad battery scale %q", scalePart)
		}
		b.CapacityMAh *= scale
	}
	return &b, nil
}

func main() {
	var (
		appName    = flag.String("app", "streaming", "application: streaming | rpeak | hrv | eeg")
		macName    = flag.String("mac", "static", "MAC protocol: static | dynamic | csma | lpl")
		minBE      = flag.Int("minbe", 0, "CSMA minimum backoff exponent (0 = protocol default)")
		maxBE      = flag.Int("maxbe", 0, "CSMA maximum backoff exponent (0 = protocol default)")
		maxBackoff = flag.Int("maxbackoffs", 0, "CSMA backoff attempts before a busy-channel drop (0 = protocol default)")
		checkEvery = flag.Duration("check-interval", 0, "LPL wakeup interval (0 = protocol default)")
		nodes      = flag.Int("nodes", 5, "number of sensor nodes")
		cycle      = flag.Duration("cycle", 30*time.Millisecond, "static TDMA cycle length")
		fs         = flag.Float64("fs", 205, "per-channel sampling frequency (Hz)")
		hr         = flag.Float64("hr", 75, "synthetic ECG heart rate (bpm)")
		duration   = flag.Duration("duration", 60*time.Second, "measurement window")
		warmup     = flag.Duration("warmup", 3*time.Second, "join/warm-up phase before measurement")
		seed       = flag.Int64("seed", 1, "simulation seed")
		ber        = flag.Float64("ber", 0, "per-bit error probability on every link")
		format     = flag.String("format", "text", "output format: text | json")
		confPath   = flag.String("config", "", "JSON scenario file (overrides the other flags)")
		reclaim    = flag.Int("reclaim", 0, "free a silent node's slot after this many beacon cycles (0 = never)")
		batSpec    = flag.String("battery", "", "give every node a live cell: cr2032 | lipo160, with an optional capacity scale like cr2032@0.001")
		brownout   = flag.Float64("brownout", 0, "brownout voltage (0 = the cell's default cutoff); needs -battery")
		degrade    = flag.Bool("degrade", false, "enable the default graceful-degradation policy; needs -battery")
		auditOn    = flag.Bool("audit", false, "run the invariant audits; any violation makes bansim exit non-zero")
		auditEvery = flag.Duration("audit-every", 0, "audit sweep cadence in simulated time (0 = the engine default); implies -audit")
		maxEvents  = flag.Uint64("max-events", 0, "abort a wedged run after this many kernel events (0 = unlimited); tripping it exits non-zero")

		withMet  = flag.Bool("metrics", false, "collect and print the observability snapshot (state residency, counters, latency histograms)")
		metOut   = flag.String("metrics-out", "", "write the metrics snapshot to this file (.csv = flat table, else JSON); implies -metrics")
		traceOut = flag.String("trace-out", "", "write the event timeline as Chrome trace_event JSON (open in chrome://tracing or ui.perfetto.dev)")
	)
	var faults []fault.Fault
	faultFlags(&faults)
	flag.Parse()
	if *format != "text" && *format != "json" {
		fatalf("unknown format %q (want text or json)", *format)
	}

	var cfg core.Config
	if *confPath != "" {
		data, err := os.ReadFile(*confPath)
		if err != nil {
			fatalf("%v", err)
		}
		if cfg, err = core.ConfigFromJSON(data); err != nil {
			fatalf("%v", err)
		}
		if *reclaim != 0 {
			// Negative values flow through so validation rejects them.
			cfg.SlotReclaimCycles = *reclaim
		}
	} else {
		cfg = core.Config{
			Protocol: mac.Protocol(*macName),
			MACParams: mac.Params{
				MinBE:         *minBE,
				MaxBE:         *maxBE,
				MaxBackoffs:   *maxBackoff,
				CheckInterval: sim.FromDuration(*checkEvery),
			},
			Nodes:             *nodes,
			Cycle:             sim.FromDuration(*cycle),
			App:               core.AppKind(*appName),
			SampleRateHz:      *fs,
			HeartRateBPM:      *hr,
			Duration:          sim.FromDuration(*duration),
			Warmup:            sim.FromDuration(*warmup),
			Seed:              *seed,
			BER:               *ber,
			SlotReclaimCycles: *reclaim,
		}
	}
	// The overlay flags compose with a scenario file: fault flags append
	// to its schedule, the audit and budget flags only tighten it.
	cfg.Faults = append(cfg.Faults, faults...)
	cfg.Metrics = cfg.Metrics || *withMet || *metOut != ""
	if *batSpec != "" {
		b, err := parseBattery(*batSpec)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Battery = b
	}
	if !approx.Unset(*brownout) {
		// Negative values flow through so validation rejects them.
		cfg.BrownoutV = *brownout
	}
	if *degrade {
		p := battery.DefaultDegradePolicy()
		cfg.Degrade = &p
	}
	if *auditOn || *auditEvery != 0 {
		if cfg.Audit == nil {
			cfg.Audit = &audit.Config{}
		}
		if *auditEvery != 0 {
			// Negative values flow through so validation rejects them,
			// the same as a bad checkInterval in a scenario file.
			cfg.Audit.Every = sim.FromDuration(*auditEvery)
		}
	}
	if *maxEvents > 0 && (cfg.MaxEvents == 0 || *maxEvents < cfg.MaxEvents) {
		cfg.MaxEvents = *maxEvents
	}
	// -trace-out reads the event ring; a scenario file's own traceLimit
	// wins.
	if *traceOut != "" && cfg.TraceLimit == 0 {
		cfg.TraceLimit = core.DefaultTraceRing
	}
	res, err := core.Run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	emit(res, *format, *metOut, *traceOut)
}

// emit prints the run in the chosen format and writes the optional
// metrics and Chrome-trace artefacts.
func emit(res core.Results, format, metOut, traceOut string) {
	if format == "json" {
		printJSON(res)
	} else {
		printText(res)
	}
	if metOut != "" {
		if err := res.Metrics.WriteFile(metOut); err != nil {
			fatalf("metrics: %v", err)
		}
	}
	if traceOut != "" {
		if err := res.Trace.WriteChromeTraceFile(traceOut); err != nil {
			fatalf("trace: %v", err)
		}
		if d := res.Trace.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "bansim: trace incomplete: %d event(s) dropped at the %d-event limit (raise -config traceLimit)\n",
				d, res.Config.TraceLimit)
		}
	}
	// Exit non-zero when the run is untrustworthy, after the full report
	// has been printed: a violated invariant means the model broke one of
	// its own laws. A full trace ring is not one: the recorder counts
	// every event before the ring decides what to keep, so the metrics
	// counters stay exact.
	if res.Audit.Failed() {
		n := uint64(len(res.Audit.Violations)) + res.Audit.Dropped
		fmt.Fprintf(os.Stderr, "bansim: %d invariant violation(s) in %d checks; first: %s\n",
			n, res.Audit.Checks, res.Audit.Violations[0])
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bansim: "+format+"\n", args...)
	os.Exit(1)
}

func printText(res core.Results) {
	fmt.Printf("BAN: %d node(s), mac=%s, app=%s, window=%v (joined all: %v)\n\n",
		res.Config.Nodes, res.Config.Protocol, res.Config.App,
		res.Config.Duration, res.JoinedAll)
	for _, n := range res.Nodes {
		fmt.Printf("%s  (slot energy over %v)\n", n.Name, res.Config.Duration)
		fmt.Printf("  radio %8.2f mJ   mcu %8.2f mJ   asic %8.2f mJ   total %8.2f mJ\n",
			n.RadioMJ(), n.MCUMJ(), n.ASICMJ(), n.Energy.TotalMJ())
		for _, comp := range n.Energy.Components {
			fmt.Printf("  %-6s:", comp.Name)
			for _, st := range orderedStates(comp) {
				sr := comp.States.Get(st)
				if sr.Time == 0 {
					continue
				}
				fmt.Printf("  %s=%.1fms/%.3fmJ", st, sr.Time.Seconds()*1e3, sr.EnergyJ*1e3)
			}
			fmt.Println()
		}
		fmt.Printf("  losses:")
		for _, cat := range energy.AllLossCategories() {
			fmt.Printf("  %s=%.3fmJ", cat, n.Energy.Losses.Get(cat)*1e3)
		}
		fmt.Println()
		fmt.Printf("  mac: beacons=%d missed=%d sent=%d acked=%d ackMiss=%d retries=%d drops=%d\n",
			n.Mac.BeaconsHeard, n.Mac.BeaconsMissed, n.Mac.DataSent,
			n.Mac.DataAcked, n.Mac.AckMissed, n.Mac.Retries, n.Mac.QueueDrops)
		if n.Mac.LatencyCount > 0 {
			fmt.Printf("  latency (send->burst): avg=%.1fms max=%.1fms over %d frames\n",
				n.Mac.AvgLatency().Milliseconds(), n.Mac.LatencyMax.Milliseconds(),
				n.Mac.LatencyCount)
		}
		if n.Beats > 0 {
			fmt.Printf("  rpeak: beats=%d packets=%d\n", n.Beats, n.PacketsSent)
		}
		fmt.Println()
	}
	fmt.Printf("base station: beacons=%d data=%d acks=%d ssr=%d reclaimed=%d\n",
		res.BSStats.BeaconsSent, res.BSStats.DataReceived,
		res.BSStats.AcksSent, res.BSStats.SSRReceived, res.BSStats.SlotsReclaimed)
	fmt.Printf("channel: tx=%d collisions=%d corrupt=%d jammed=%d blackout=%d\n",
		res.Channel.Transmissions, res.Channel.Collisions, res.Channel.CorruptCopies,
		res.Channel.JammedFrames, res.Channel.BlackoutDrops)
	avail := make([]report.NodeAvailability, 0, len(res.Nodes))
	for _, n := range res.Nodes {
		avail = append(avail, report.NodeAvailability{
			Name:          n.Name,
			Availability:  n.Availability,
			DeliveryRatio: n.DeliveryRatio,
		})
	}
	if s := report.RenderResilience(avail, res.Faults, res.BSStats.SlotsReclaimed); s != "" {
		fmt.Println()
		fmt.Print(s)
	}
	cells := make([]report.NodeBattery, 0, len(res.Nodes))
	for _, n := range res.Nodes {
		cells = append(cells, report.NodeBattery{Name: n.Name, Report: n.Battery})
	}
	if s := report.RenderLifetime(cells, res.TimeToFirstDeath, res.NetworkLifetime); s != "" {
		fmt.Println()
		fmt.Print(s)
	}
	if s := report.RenderMetrics(res.Metrics); s != "" {
		fmt.Println()
		fmt.Print(s)
	}
	if s := report.RenderAudit(res.Audit); s != "" {
		fmt.Println()
		fmt.Print(s)
	}
}

func orderedStates(c energy.ComponentReport) []energy.State {
	var order []energy.State
	switch c.Name {
	case platform.ComponentRadio:
		order = []energy.State{platform.StateRadioRX, platform.StateRadioTX,
			platform.StateRadioStandby, platform.StateRadioOff}
	case platform.ComponentMCU:
		order = []energy.State{platform.StateMCUActive, platform.StateMCUPowerSave,
			platform.StateMCULPM2, platform.StateMCULPM3, platform.StateMCULPM4}
	default:
		order = []energy.State{platform.StateASICOn, platform.StateASICOff}
	}
	return order
}

// jsonResult flattens the results for machine consumption.
type jsonResult struct {
	Nodes []jsonNode `json:"nodes"`
	BS    struct {
		Beacons   uint64 `json:"beacons"`
		Data      uint64 `json:"dataReceived"`
		Reclaimed uint64 `json:"slotsReclaimed"`
	} `json:"baseStation"`
	Collisions uint64            `json:"collisions"`
	JoinedAll  bool              `json:"joinedAll"`
	Faults     []fault.Outcome   `json:"faults,omitempty"`
	Metrics    *metrics.Snapshot `json:"metrics,omitempty"`
	// Lifetime figures are populated only when the scenario runs on a
	// battery.
	TimeToFirstDeath sim.Time `json:"timeToFirstDeath,omitempty"`
	NetworkLifetime  sim.Time `json:"networkLifetime,omitempty"`
	// Audit is the invariant-audit summary (present only when auditing
	// was enabled).
	Audit *audit.Summary `json:"audit,omitempty"`
}

type jsonNode struct {
	Name         string             `json:"name"`
	RadioMJ      float64            `json:"radioMJ"`
	MCUMJ        float64            `json:"mcuMJ"`
	ASICMJ       float64            `json:"asicMJ"`
	Losses       map[string]float64 `json:"lossesMJ"`
	Sent         uint64             `json:"dataSent"`
	Acked        uint64             `json:"dataAcked"`
	Beats        uint64             `json:"beats,omitempty"`
	Availability float64            `json:"availability"`
	Delivery     float64            `json:"deliveryRatio"`
	Battery      *battery.Report    `json:"battery,omitempty"`
}

func printJSON(res core.Results) {
	out := jsonResult{JoinedAll: res.JoinedAll, Collisions: res.Channel.Collisions,
		Faults: res.Faults, Metrics: res.Metrics,
		TimeToFirstDeath: res.TimeToFirstDeath, NetworkLifetime: res.NetworkLifetime,
		Audit: res.Audit}
	out.BS.Beacons = res.BSStats.BeaconsSent
	out.BS.Data = res.BSStats.DataReceived
	out.BS.Reclaimed = res.BSStats.SlotsReclaimed
	for _, n := range res.Nodes {
		jn := jsonNode{
			Name:         n.Name,
			RadioMJ:      n.RadioMJ(),
			MCUMJ:        n.MCUMJ(),
			ASICMJ:       n.ASICMJ(),
			Losses:       map[string]float64{},
			Sent:         n.Mac.DataSent,
			Acked:        n.Mac.DataAcked,
			Beats:        n.Beats,
			Availability: n.Availability,
			Delivery:     n.DeliveryRatio,
			Battery:      n.Battery,
		}
		for _, cat := range energy.AllLossCategories() {
			if j, ok := n.Energy.Losses.Lookup(cat); ok {
				jn.Losses[string(cat)] = j * 1e3
			}
		}
		out.Nodes = append(out.Nodes, jn)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatalf("encode: %v", err)
	}
}
