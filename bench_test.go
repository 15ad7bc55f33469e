// Benchmarks timing the regeneration of the paper's tables and Figure 4
// (§5) and the simulator's raw throughput. The numbers themselves come
// from internal/experiments, which `go run ./cmd/tables` prints and the
// tables golden pins.
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

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mac"
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
