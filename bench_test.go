// Benchmarks regenerating every table and figure of the paper's
// evaluation section (§5), plus ablations of the model's design choices.
//
// Each BenchmarkTableN iteration reproduces the full published table on
// the event simulator (60 s windows, as in the paper) and reports the
// average absolute estimation errors against the paper's measured ("Real")
// and simulated ("Sim") columns as benchmark metrics. The rendered tables
// are printed once per run via b.Log (visible with -v or in b.N=1 runs).
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/paperdata"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

var logOnce sync.Map

// logTableOnce prints a rendered table a single time per benchmark name.
func logTableOnce(b *testing.B, key, rendered string) {
	if _, dup := logOnce.LoadOrStore(key, true); !dup {
		b.Log("\n" + rendered)
	}
}

// benchTable reproduces one published table per iteration. The table's
// rows fan out across the parallel runner (Workers 0 = all cores);
// worker count changes only the wall-clock time, never the numbers.
func benchTable(b *testing.B, id string) {
	b.ReportAllocs()
	var last report.TableReport
	for i := 0; i < b.N; i++ {
		t, err := experiments.Reproduce(id, experiments.Options{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	logTableOnce(b, id, last.Render())
	b.ReportMetric(last.AvgAbsRadioErrVsReal(), "radioErrVsReal%")
	b.ReportMetric(last.AvgAbsMCUErrVsReal(), "mcuErrVsReal%")
	b.ReportMetric(last.AvgAbsRadioErrVsSim(), "radioErrVsSim%")
	b.ReportMetric(last.AvgAbsMCUErrVsSim(), "mcuErrVsSim%")
}

// BenchmarkTable1 regenerates Table 1: ECG streaming over static TDMA,
// sampling-frequency sweep {205,105,70,55} Hz on a 5-node BAN.
func BenchmarkTable1(b *testing.B) { benchTable(b, "table1") }

// BenchmarkTable2 regenerates Table 2: ECG streaming over dynamic TDMA,
// network-size sweep 1..5 nodes with 10 ms slots.
func BenchmarkTable2(b *testing.B) { benchTable(b, "table2") }

// BenchmarkTable3 regenerates Table 3: on-node Rpeak over static TDMA,
// cycle sweep {30,60,90,120} ms at the algorithm's fixed 200 Hz.
func BenchmarkTable3(b *testing.B) { benchTable(b, "table3") }

// BenchmarkTable4 regenerates Table 4: on-node Rpeak over dynamic TDMA,
// network-size sweep 1..5 nodes.
func BenchmarkTable4(b *testing.B) { benchTable(b, "table4") }

// BenchmarkFigure4 regenerates Figure 4: raw streaming at a 30 ms cycle
// vs on-node Rpeak at a 120 ms cycle, reporting the headline energy
// saving (paper: 65%).
func BenchmarkFigure4(b *testing.B) {
	b.ReportAllocs()
	var bars []report.Bar
	for i := 0; i < b.N; i++ {
		var err error
		bars, err = experiments.Figure4(experiments.Options{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	logTableOnce(b, "figure4", report.RenderFigure4(bars))
	saving := (1 - bars[1].Total()/bars[0].Total()) * 100
	b.ReportMetric(saving, "saving%")
	b.ReportMetric(bars[0].Total(), "streamingMJ")
	b.ReportMetric(bars[1].Total(), "rpeakMJ")
}

// timelineRun drives two staggered joins and returns the trace, the
// scenario behind Figures 2 and 3.
func timelineRun(b *testing.B, variant mac.Variant, seed int64) *metrics.Recorder {
	b.Helper()
	res, err := core.Run(core.Config{
		Variant:      variant,
		Nodes:        2,
		Cycle:        60 * sim.Millisecond,
		App:          core.AppStreaming,
		SampleRateHz: 100,
		Duration:     2 * sim.Second,
		Warmup:       10 * sim.Millisecond,
		StartStagger: 150 * sim.Millisecond,
		Seed:         seed,
		TraceLimit:   core.DefaultTraceRing,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Trace
}

// BenchmarkFigure2StaticTimeline regenerates the static TDMA timeline of
// Figure 2: beacons in SB slots, SSRi requests in the receive region,
// slot grants, then periodic Si data slots.
func BenchmarkFigure2StaticTimeline(b *testing.B) {
	b.ReportAllocs()
	var tr *metrics.Recorder
	for i := 0; i < b.N; i++ {
		tr = timelineRun(b, mac.Static, int64(i+1))
	}
	if tr.Count(metrics.KindSSRTx) < 2 || tr.Count(metrics.KindJoined) != 2 {
		b.Fatalf("static join sequence incomplete: ssr=%d joined=%d",
			tr.Count(metrics.KindSSRTx), tr.Count(metrics.KindJoined))
	}
	logTableOnce(b, "figure2", "FIGURE 2 (static TDMA timeline, first events):\n"+
		renderHead(tr, 24))
	b.ReportMetric(float64(tr.Count(metrics.KindBeaconTx)), "beacons")
	b.ReportMetric(float64(tr.Count(metrics.KindDataTx)), "dataTx")
}

// BenchmarkFigure3DynamicTimeline regenerates the dynamic TDMA timeline
// of Figure 3: SB+ES cycles that grow as each SSR is granted.
func BenchmarkFigure3DynamicTimeline(b *testing.B) {
	b.ReportAllocs()
	var tr *metrics.Recorder
	for i := 0; i < b.N; i++ {
		tr = timelineRun(b, mac.Dynamic, int64(i+1))
	}
	if tr.Count(metrics.KindCycleGrow) != 2 {
		b.Fatalf("dynamic cycle growth events = %d, want 2", tr.Count(metrics.KindCycleGrow))
	}
	logTableOnce(b, "figure3", "FIGURE 3 (dynamic TDMA timeline, first events):\n"+
		renderHead(tr, 24))
	b.ReportMetric(float64(tr.Count(metrics.KindCycleGrow)), "cycleGrowths")
}

func renderHead(tr *metrics.Recorder, n int) string {
	events := tr.Events()
	if len(events) > n {
		events = events[:n]
	}
	out := ""
	for _, e := range events {
		out += e.String() + "\n"
	}
	return out
}

// --- ablations: what each modelling choice contributes -------------------

// BenchmarkAblationMCUModel quantifies the paper's §4.1 argument that the
// microcontroller cannot be discarded: it reports the µC share of the
// node's radio+µC energy at the Table 1 extremes.
func BenchmarkAblationMCUModel(b *testing.B) {
	run := func(seed int64) (share205, share55 float64) {
		hi, err := core.Run(core.Config{Variant: mac.Static, Nodes: 5,
			Cycle: 30 * sim.Millisecond, App: core.AppStreaming, SampleRateHz: 205,
			Duration: 60 * sim.Second, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		lo, err := core.Run(core.Config{Variant: mac.Static, Nodes: 5,
			Cycle: 120 * sim.Millisecond, App: core.AppStreaming, SampleRateHz: 55,
			Duration: 60 * sim.Second, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return hi.Node().MCUMJ() / hi.Node().TotalMJ() * 100,
			lo.Node().MCUMJ() / lo.Node().TotalMJ() * 100
	}
	var hi, lo float64
	for i := 0; i < b.N; i++ {
		hi, lo = run(int64(i + 1))
	}
	// A radio-only model would misestimate totals by the µC share: ~22%
	// at 205 Hz and ~48% at 55 Hz.
	b.ReportMetric(hi, "mcuShare@205Hz%")
	b.ReportMetric(lo, "mcuShare@55Hz%")
}

// BenchmarkAblationControlPackets quantifies §4.2's control-packet
// accounting: the share of radio energy spent on beacons, acks and slot
// requests rather than data payload bits.
func BenchmarkAblationControlPackets(b *testing.B) {
	var controlShare float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{Variant: mac.Static, Nodes: 5,
			Cycle: 30 * sim.Millisecond, App: core.AppStreaming, SampleRateHz: 205,
			Duration: 60 * sim.Second, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		n := res.Node()
		controlShare = n.Energy.Losses["control-overhead"] * 1e3 / n.RadioMJ() * 100
	}
	b.ReportMetric(controlShare, "controlShare%")
}

// BenchmarkAblationCollisionModel quantifies §4.2's collision/CRC
// machinery: radio energy with a clean channel vs a lossy one (CRC drops,
// missed acks, retransmissions) — the effect TOSSIM's logical-or
// assumption cannot see.
func BenchmarkAblationCollisionModel(b *testing.B) {
	var cleanMJ, noisyMJ float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		clean, err := core.Run(core.Config{Variant: mac.Static, Nodes: 3,
			Cycle: 30 * sim.Millisecond, App: core.AppStreaming, SampleRateHz: 205,
			Duration: 60 * sim.Second, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		noisy, err := core.Run(core.Config{Variant: mac.Static, Nodes: 3,
			Cycle: 30 * sim.Millisecond, App: core.AppStreaming, SampleRateHz: 205,
			Duration: 60 * sim.Second, Seed: seed, BER: 5e-4})
		if err != nil {
			b.Fatal(err)
		}
		cleanMJ, noisyMJ = clean.Node().RadioMJ(), noisy.Node().RadioMJ()
	}
	b.ReportMetric(cleanMJ, "cleanMJ")
	b.ReportMetric(noisyMJ, "noisyMJ")
	b.ReportMetric((noisyMJ-cleanMJ)/cleanMJ*100, "lossyPenalty%")
}

// BenchmarkAblationEventSimVsAnalytic compares the event-driven simulator
// against the closed-form duty-cycle model on Table 1: the residual is
// what protocol dynamics (queueing, join, retries, timer interleaving)
// add over static geometry.
func BenchmarkAblationEventSimVsAnalytic(b *testing.B) {
	var maxDelta float64
	for i := 0; i < b.N; i++ {
		maxDelta = 0
		for _, row := range paperdata.Table1().Rows {
			res, err := core.Run(core.Config{Variant: mac.Static, Nodes: row.Nodes,
				Cycle: row.Cycle, App: core.AppStreaming, SampleRateHz: row.SampleRateHz,
				Duration: 60 * sim.Second, Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			an, err := analytic.Compute(analytic.Scenario{Variant: mac.Static,
				Nodes: row.Nodes, Cycle: row.Cycle, App: "streaming",
				SampleRateHz: row.SampleRateHz, Duration: 60 * sim.Second})
			if err != nil {
				b.Fatal(err)
			}
			d := (res.Node().RadioMJ() - an.RadioMJ()) / an.RadioMJ() * 100
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	b.ReportMetric(maxDelta, "maxSimVsAnalytic%")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// seconds of a 5-node streaming BAN per wall-clock second — the
// scalability argument the paper makes against instruction-level
// simulators like Atemu/Simulavr.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Config{Variant: mac.Static, Nodes: 5,
			Cycle: 30 * sim.Millisecond, App: core.AppStreaming, SampleRateHz: 205,
			Duration: 60 * sim.Second, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	// 63 simulated seconds (3 s warmup + 60 s window) per iteration.
	secsPerOp := 63.0
	b.ReportMetric(secsPerOp*float64(b.N)/b.Elapsed().Seconds(), "simSecs/s")
}

// BenchmarkScenario exercises the four (MAC, application) corners at a
// fixed small window, as a quick regression grid. Each iteration submits
// the whole grid through the parallel runner, the way every large-grid
// experiment now runs.
func BenchmarkScenario(b *testing.B) {
	cases := []struct {
		name    string
		variant mac.Variant
		app     core.AppKind
		fs      float64
	}{
		{"static/streaming", mac.Static, core.AppStreaming, 205},
		{"static/rpeak", mac.Static, core.AppRpeak, 200},
		{"dynamic/streaming", mac.Dynamic, core.AppStreaming, 100},
		{"dynamic/rpeak", mac.Dynamic, core.AppRpeak, 200},
	}
	b.ReportAllocs()
	var results []runner.Result
	for i := 0; i < b.N; i++ {
		points := make([]runner.Point, len(cases))
		for j, c := range cases {
			points[j] = runner.Point{Label: c.name, Config: core.Config{
				Variant: c.variant, Nodes: 5, Cycle: 30 * sim.Millisecond,
				App: c.app, SampleRateHz: c.fs,
				Duration: 10 * sim.Second, Seed: int64(i + 1)}}
		}
		results = runner.Run(points, runner.Options{})
		if err := runner.FirstErr(results); err != nil {
			b.Fatal(err)
		}
	}
	for j, c := range cases {
		b.ReportMetric(results[j].Res.Node().RadioMJ(), c.name+"_radioMJ/10s")
	}
}

// BenchmarkAblationClockDrift quantifies what the calibrated guard
// margins buy: a slow oscillator shortens the beacon window (saving
// energy) until drift x cycle overruns the guard and synchronisation
// collapses — the trade the paper's platform resolves with its guard
// sizing.
func BenchmarkAblationClockDrift(b *testing.B) {
	run := func(ppm float64, seed int64) (radioMJ float64, missed uint64) {
		res, err := core.Run(core.Config{Variant: mac.Static, Nodes: 1,
			Cycle: 120 * sim.Millisecond, App: core.AppStreaming, SampleRateHz: 55,
			Duration: 60 * sim.Second, Seed: seed, ClockDriftPPM: ppm})
		if err != nil {
			b.Fatal(err)
		}
		return res.Node().RadioMJ(), res.Node().Mac.BeaconsMissed
	}
	var crystalMJ, dcoMJ float64
	var crystalMiss, dcoMiss uint64
	for i := 0; i < b.N; i++ {
		crystalMJ, crystalMiss = run(50, int64(i+1))
		dcoMJ, dcoMiss = run(30000, int64(i+1))
	}
	b.ReportMetric(crystalMJ, "radioMJ@50ppm")
	b.ReportMetric(float64(crystalMiss), "missed@50ppm")
	b.ReportMetric(dcoMJ, "radioMJ@3pct")
	b.ReportMetric(float64(dcoMiss), "missed@3pct")
}

// BenchmarkAblationClockScaling turns the knob the paper's platform
// could not (the ASIC pinned the MCU at 8 MHz): with the 0.66 mA
// power-save floor, a slower clock buys cheaper active cycles while
// deadlines hold.
func BenchmarkAblationClockScaling(b *testing.B) {
	runAt := func(hz float64, seed int64) float64 {
		prof := platform.IMEC()
		prof.MCU = prof.MCU.AtClock(hz)
		res, err := core.Run(core.Config{Variant: mac.Static, Nodes: 1,
			Cycle: 120 * sim.Millisecond, App: core.AppRpeak,
			Duration: 60 * sim.Second, Seed: seed, Profile: &prof})
		if err != nil {
			b.Fatal(err)
		}
		return res.Node().MCUMJ()
	}
	var mj8, mj4, mj1 float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		mj8 = runAt(8e6, seed)
		mj4 = runAt(4e6, seed)
		mj1 = runAt(1e6, seed)
	}
	b.ReportMetric(mj8, "mcuMJ@8MHz")
	b.ReportMetric(mj4, "mcuMJ@4MHz")
	b.ReportMetric(mj1, "mcuMJ@1MHz")
}

// BenchmarkPreprocessingLadder extends Figure 4 one rung further: raw
// streaming -> per-beat packets -> per-window HRV summaries, reporting
// each stage's total (radio+µC) energy. The three rungs run as one
// runner batch per iteration.
func BenchmarkPreprocessingLadder(b *testing.B) {
	point := func(label string, app core.AppKind, cycle sim.Time, fs float64, seed int64) runner.Point {
		return runner.Point{Label: label, Config: core.Config{Variant: mac.Static,
			Nodes: 5, Cycle: cycle, App: app, SampleRateHz: fs,
			Duration: 60 * sim.Second, Seed: seed}}
	}
	var results []runner.Result
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		results = runner.Run([]runner.Point{
			point("streaming", core.AppStreaming, 30*sim.Millisecond, 205, seed),
			point("rpeak", core.AppRpeak, 120*sim.Millisecond, 200, seed),
			point("hrv", core.AppHRV, 120*sim.Millisecond, 200, seed),
		}, runner.Options{})
		if err := runner.FirstErr(results); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(results[0].Res.Node().TotalMJ(), "streamingMJ")
	b.ReportMetric(results[1].Res.Node().TotalMJ(), "rpeakMJ")
	b.ReportMetric(results[2].Res.Node().TotalMJ(), "hrvMJ")
}
