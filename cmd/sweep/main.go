// Command sweep runs a parameter sweep over the BAN design space and
// emits CSV, for the architecture-tuning workflow the paper motivates:
// explore cycle lengths, sampling rates, network sizes and channel
// quality in simulation before committing hardware.
//
// Points are independent simulations, so the sweep fans out across
// -workers goroutines (default: all cores). Results are written in
// point order and are identical at any worker count; -workers 1 runs
// fully sequentially.
//
// Examples:
//
//	sweep -mode cycle -app streaming            # cycle length sweep
//	sweep -mode nodes -mac dynamic -app rpeak   # network size sweep
//	sweep -mode ber -app streaming -workers 4   # channel quality sweep
//
// The sweep is resilient (README "Interrupting and resuming sweeps"):
// SIGINT/SIGTERM stops dispatching, drains in-flight points and still
// emits the completed rows (marked partial on stderr, exit 1). With
// -journal the completed points are also persisted crash-safely, and
// -resume restores them instead of re-running — an interrupted sweep
// picks up where it stopped and produces byte-identical CSV.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/sim"
)

func main() {
	var (
		mode     = flag.String("mode", "cycle", "sweep dimension: cycle | nodes | fs | ber | drift | clock | crashrate | lifetime | maccompare")
		appName  = flag.String("app", "streaming", "application: streaming | rpeak | hrv | eeg")
		macName  = flag.String("mac", "static", "MAC protocol: static | dynamic | csma | lpl (ignored by -mode maccompare, which runs them all)")
		nodes    = flag.Int("nodes", 5, "node count (fixed dimensions)")
		duration = flag.Duration("duration", 20*time.Second, "measurement window per point")
		seed     = flag.Int64("seed", 1, "simulation seed")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = sequential)")
		progress = flag.Bool("progress", false, "report per-point progress on stderr")
		metOut   = flag.String("metrics-out", "", "write the sweep's aggregated metrics snapshot to this file (.csv = flat table, else JSON)")
		jnlPath  = flag.String("journal", "", "append each completed point to this crash-safe journal file")
		resume   = flag.String("resume", "", "restore completed points from this journal and append new ones to it (implies -journal)")
	)
	flag.Parse()

	if *resume != "" {
		if *jnlPath != "" && *jnlPath != *resume {
			fatalf("-journal and -resume must name the same file")
		}
		*jnlPath = *resume
	}

	proto, app := mac.Protocol(*macName), core.AppKind(*appName)
	base := core.Config{
		Protocol: proto,
		Nodes:    *nodes,
		Cycle:    30 * sim.Millisecond,
		App:      app,
		Duration: sim.FromDuration(*duration),
		Seed:     *seed,
	}
	if proto == mac.ProtoLPL {
		base.Cycle = 0 // the wakeup interval, not a TDMA cycle, paces LPL
	}
	if app == core.AppStreaming {
		base.SampleRateHz = 205
	}

	base.Metrics = *metOut != ""
	// A bad -mac or -app name fails here, before any point runs. The
	// -nodes and -duration values are checked per point instead (a mode
	// may override them, and a failed point still renders its CSV), and
	// Validate fills in defaults, so it checks a copy.
	check := base
	check.Nodes, check.Duration = 1, sim.Second
	if err := check.Validate(); err != nil {
		fatalf("%v", err)
	}

	var points []runner.Point
	add := func(label string, cfg core.Config) {
		points = append(points, runner.Point{Label: label, Config: cfg})
	}

	switch *mode {
	case "cycle":
		for _, ms := range []int{20, 30, 45, 60, 90, 120, 180, 240} {
			cfg := base
			cfg.Cycle = sim.Time(ms) * sim.Millisecond
			if app == core.AppStreaming {
				// Keep the payload geometry: 12 samples per cycle.
				cfg.SampleRateHz = 6.0 / cfg.Cycle.Seconds()
			}
			add(fmt.Sprintf("cycle=%dms", ms), cfg)
		}
	case "nodes":
		for n := 1; n <= 5; n++ {
			cfg := base
			cfg.Nodes = n
			if app == core.AppStreaming && proto == mac.ProtoDynamic {
				// Dynamic cycle = (n+1) x 10 ms; keep 12 samples/cycle.
				cfg.SampleRateHz = 6.0 / (float64(n+1) * 0.010)
			}
			add(fmt.Sprintf("nodes=%d", n), cfg)
		}
	case "fs":
		for _, fs := range []float64{25, 55, 70, 105, 150, 205, 300} {
			cfg := base
			cfg.SampleRateHz = fs
			if app == core.AppStreaming {
				cfg.Cycle = sim.Time(6.0 / fs * float64(sim.Second))
			}
			add(fmt.Sprintf("fs=%gHz", fs), cfg)
		}
	case "ber":
		for _, ber := range []float64{0, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3} {
			cfg := base
			cfg.BER = ber
			add(fmt.Sprintf("ber=%g", ber), cfg)
		}
	case "drift":
		for _, ppm := range []float64{0, 50, 500, 5000, 15000, 30000} {
			cfg := base
			cfg.Cycle = 120 * sim.Millisecond
			if app == core.AppStreaming {
				cfg.SampleRateHz = 50
			}
			cfg.ClockDriftPPM = ppm
			add(fmt.Sprintf("drift=%gppm", ppm), cfg)
		}
	case "clock":
		for _, mhz := range []float64{8, 4, 2, 1, 0.5} {
			cfg := base
			prof := platform.IMEC()
			prof.MCU = prof.MCU.AtClock(mhz * 1e6)
			cfg.Profile = &prof
			cfg.Cycle = 120 * sim.Millisecond
			if app == core.AppStreaming {
				cfg.SampleRateHz = 50
			}
			add(fmt.Sprintf("clock=%gMHz", mhz), cfg)
		}
	case "crashrate":
		// Resilience sweep: a growing number of crash/reboot cycles spread
		// evenly over the measurement window, rotating across the nodes,
		// with slot reclamation on. Availability and delivery columns show
		// how the two TDMA variants degrade.
		const outage = 1 * sim.Second
		for _, crashes := range []int{0, 1, 2, 3, 4, 5} {
			cfg := base
			cfg.Warmup = 3 * sim.Second
			cfg.SlotReclaimCycles = 15
			for i := 0; i < crashes; i++ {
				at := cfg.Warmup + cfg.Duration*sim.Time(i+1)/sim.Time(crashes+1)
				cfg.Faults = append(cfg.Faults, fault.Fault{
					Kind:        fault.KindCrash,
					Node:        uint8(i%cfg.Nodes + 1),
					At:          at,
					RebootAfter: outage,
				})
			}
			add(fmt.Sprintf("crashes=%d", crashes), cfg)
		}
	case "lifetime":
		// Battery-lifetime sweep: shrunken coin cells (a full-size CR2032
		// outlives any simulable window by orders of magnitude) across a
		// capacity grid, each point run with and without the graceful-
		// degradation policy, so the CSV shows directly how much lifetime
		// the policy buys at each energy budget.
		cell := battery.CR2032()
		for _, scale := range []float64{1.0e-4, 1.5e-4, 2.0e-4, 3.0e-4} {
			for _, deg := range []bool{false, true} {
				cfg := base
				b := cell
				b.CapacityMAh *= scale
				cfg.Battery = &b
				if deg {
					p := battery.DefaultDegradePolicy()
					cfg.Degrade = &p
				}
				cfg.SlotReclaimCycles = 15
				add(fmt.Sprintf("scale=%g,degrade=%v", scale, deg), cfg)
			}
		}
	case "maccompare":
		points = macComparePoints(base)
	default:
		fatalf("unknown mode %q", *mode)
	}

	opts := runner.Options{Workers: *workers}
	if *progress {
		opts.OnProgress = func(p runner.Progress) {
			rate := float64(p.Events) / p.Elapsed.Seconds()
			fmt.Fprintf(os.Stderr, "sweep: %d/%d %s (elapsed %v, eta %v, %.2fM events/s)\n",
				p.Done, p.Total, p.Label, p.Elapsed.Round(time.Millisecond), p.ETA.Round(time.Millisecond),
				rate/1e6)
		}
	}
	if *jnlPath != "" {
		j, err := runner.OpenJournal(*jnlPath, *resume != "")
		if err != nil {
			fatalf("%v", err)
		}
		defer j.Close()
		if st := j.Stats(); st.CorruptRecords > 0 || st.TruncatedTail {
			fmt.Fprintf(os.Stderr, "sweep: journal damaged (%d corrupt record(s), truncated tail: %v); affected points will re-run\n",
				st.CorruptRecords, st.TruncatedTail)
		}
		opts.Journal = j
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	results := runner.RunCtx(ctx, points, opts)
	stop()
	if opts.Journal != nil {
		if err := opts.Journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: closing journal: %v\n", err)
		}
	}
	if n := runner.Restored(results); n > 0 {
		fmt.Fprintf(os.Stderr, "sweep: restored %d point(s) from %s\n", n, *jnlPath)
	}

	if *metOut != "" {
		if agg := runner.AggregateMetrics(results); agg != nil {
			if err := agg.WriteFile(*metOut); err != nil {
				fatalf("metrics: %v", err)
			}
		}
	}

	// Completed points always reach the CSV — an interrupted or
	// partially failed sweep salvages the finished work; failed and
	// skipped points are reported on stderr and through the exit status.
	ok := results[:0:0]
	for _, r := range results {
		if r.Err == nil && !r.Skipped {
			ok = append(ok, r)
		}
	}
	w := csv.NewWriter(os.Stdout)
	switch *mode {
	case "lifetime":
		writeLifetimeCSV(w, ok)
	case "maccompare":
		writeMacCompareCSV(w, ok)
	default:
		writeSweepCSV(w, ok)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fatalf("%v", err)
	}

	exit := 0
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	if failed > 0 {
		exit = 1
		fmt.Fprintf(os.Stderr, "sweep: %d/%d point(s) failed (first: %v)\n",
			failed, len(results), runner.FirstErr(results))
	}
	if skipped := runner.Skipped(results); skipped > 0 {
		exit = 1
		fmt.Fprintf(os.Stderr, "sweep: interrupted: partial results, %d/%d point(s) completed, %d skipped\n",
			len(ok), len(results), skipped)
	}
	os.Exit(exit)
}

// writeSweepCSV emits the standard per-point energy/latency table.
func writeSweepCSV(w *csv.Writer, results []runner.Result) {
	header := []string{"point", "radio_mJ", "mcu_mJ", "total_mJ", "avg_power_mW",
		"pkts_sent", "pkts_acked", "ack_missed", "retries",
		"avg_latency_ms", "max_latency_ms",
		"collision_mJ", "idle_mJ", "overhear_mJ", "control_mJ",
		"availability", "delivery_ratio", "slots_reclaimed"}
	if err := w.Write(header); err != nil {
		fatalf("%v", err)
	}
	for _, r := range results {
		n := r.Res.Node()
		total := n.RadioMJ() + n.MCUMJ()
		secs := r.Config.Duration.Seconds()
		row := []string{
			r.Label,
			f1(n.RadioMJ()), f1(n.MCUMJ()), f1(total), f3(total / secs),
			strconv.FormatUint(n.Mac.DataSent, 10),
			strconv.FormatUint(n.Mac.DataAcked, 10),
			strconv.FormatUint(n.Mac.AckMissed, 10),
			strconv.FormatUint(n.Mac.Retries, 10),
			f1(n.Mac.AvgLatency().Milliseconds()),
			f1(n.Mac.LatencyMax.Milliseconds()),
			f3(n.Energy.Losses[energy.LossCollision] * 1e3),
			f3(n.Energy.Losses[energy.LossIdleListening] * 1e3),
			f3(n.Energy.Losses[energy.LossOverhearing] * 1e3),
			f3(n.Energy.Losses[energy.LossControl] * 1e3),
			f3(meanAvailability(r.Res.Nodes)),
			f3(meanDelivery(r.Res.Nodes)),
			strconv.FormatUint(r.Res.BSStats.SlotsReclaimed, 10),
		}
		if err := w.Write(row); err != nil {
			fatalf("%v", err)
		}
	}
}

// macComparePoints builds one point per registered MAC protocol, all
// running the identical workload: the cross-protocol comparison the
// related-work MAC surveys tabulate. A warmup absorbs the very
// different join transients (TDMA slot grants vs LPL strobed
// association) so the measured window compares steady states.
func macComparePoints(base core.Config) []runner.Point {
	var points []runner.Point
	for _, p := range mac.Protocols() {
		cfg := base
		cfg.Protocol = p
		cfg.Warmup = 3 * sim.Second
		if p == mac.ProtoLPL {
			cfg.Cycle = 0 // paced by the wakeup interval instead
		} else if cfg.Cycle == 0 {
			cfg.Cycle = 30 * sim.Millisecond
		}
		points = append(points, runner.Point{Label: string(p), Config: cfg})
	}
	return points
}

// writeMacCompareCSV emits the cross-protocol table: per-protocol
// energy, latency and delivery for the same workload, plus an estimated
// full-CR2032 node lifetime extrapolated from the measured average
// power (simulating an actual 220 mAh cell to empty would take
// simulated months).
func writeMacCompareCSV(w *csv.Writer, results []runner.Result) {
	header := []string{"protocol", "radio_mJ", "mcu_mJ", "total_mJ", "avg_power_mW",
		"avg_latency_ms", "max_latency_ms", "delivery_ratio", "availability",
		"est_cr2032_days", "beacons_heard", "cca_attempts", "strobes_sent"}
	if err := w.Write(header); err != nil {
		fatalf("%v", err)
	}
	usableJ := battery.CR2032().UsableJ()
	for _, r := range results {
		n := r.Res.Node()
		total := n.RadioMJ() + n.MCUMJ()
		secs := r.Config.Duration.Seconds()
		powerW := total / 1e3 / secs
		row := []string{
			r.Label,
			f1(n.RadioMJ()), f1(n.MCUMJ()), f1(total), f3(total / secs),
			f1(n.Mac.AvgLatency().Milliseconds()),
			f1(n.Mac.LatencyMax.Milliseconds()),
			f3(meanDelivery(r.Res.Nodes)),
			f3(meanAvailability(r.Res.Nodes)),
			f1(usableJ / powerW / 86400),
			strconv.FormatUint(n.Mac.BeaconsHeard, 10),
			strconv.FormatUint(n.Mac.CCAAttempts, 10),
			strconv.FormatUint(n.Mac.StrobesSent, 10),
		}
		if err := w.Write(row); err != nil {
			fatalf("%v", err)
		}
	}
}

// writeLifetimeCSV emits the battery-sweep table: network-lifetime
// figures, death counts and the residual state of charge.
func writeLifetimeCSV(w *csv.Writer, results []runner.Result) {
	header := []string{"point", "ttfd_s", "net_lifetime_s", "nodes_dead", "min_soc",
		"avg_power_mW", "slots_skipped", "slots_released"}
	if err := w.Write(header); err != nil {
		fatalf("%v", err)
	}
	for _, r := range results {
		var dead int
		minSOC := 1.0
		var skipped uint64
		for _, n := range r.Res.Nodes {
			if n.Battery == nil {
				continue
			}
			if n.Battery.Died {
				dead++
			}
			if n.Battery.SOC < minSOC {
				minSOC = n.Battery.SOC
			}
			skipped += n.Mac.SlotsSkipped
		}
		n := r.Res.Node()
		row := []string{
			r.Label,
			f1(r.Res.TimeToFirstDeath.Seconds()),
			f1(r.Res.NetworkLifetime.Seconds()),
			strconv.Itoa(dead),
			f3(minSOC),
			f3((n.RadioMJ() + n.MCUMJ()) / r.Config.Duration.Seconds()),
			strconv.FormatUint(skipped, 10),
			strconv.FormatUint(r.Res.BSStats.SlotsReleased, 10),
		}
		if err := w.Write(row); err != nil {
			fatalf("%v", err)
		}
	}
}

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// meanAvailability averages the per-node slot-holding fraction.
func meanAvailability(nodes []core.NodeResult) float64 {
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	for _, n := range nodes {
		sum += n.Availability
	}
	return sum / float64(len(nodes))
}

// meanDelivery averages the per-node acked/sent ratio.
func meanDelivery(nodes []core.NodeResult) float64 {
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	for _, n := range nodes {
		sum += n.DeliveryRatio
	}
	return sum / float64(len(nodes))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	os.Exit(1)
}
