package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Short windows keep this suite fast; the tables golden runs the full
// 60 s windows.
var fast = Options{Seed: 1, Duration: 6 * sim.Second}

func TestTableIDs(t *testing.T) {
	ids := TableIDs()
	if len(ids) != 4 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestUnknownTable(t *testing.T) {
	if _, err := Reproduce("table9", fast); err == nil {
		t.Fatalf("unknown table accepted")
	}
}

func TestReproduceTable1Fast(t *testing.T) {
	tab, err := Reproduce("table1", fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Sub-window runs scale back to the 60 s basis: the error vs the
	// paper stays moderate even at 1/10 duration.
	if tab.AvgAbsRadioErrVsReal() > 12 {
		t.Fatalf("fast-run radio error %.1f%% too large", tab.AvgAbsRadioErrVsReal())
	}
	out := tab.Render()
	if !strings.Contains(out, "TABLE1") || !strings.Contains(out, "540.6") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestReproduceAllFast(t *testing.T) {
	tabs, err := ReproduceAll(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tab := range tabs {
		for _, r := range tab.Rows {
			if r.OursRadioMJ <= 0 || r.OursMCUMJ <= 0 ||
				r.AnalyticRadioMJ <= 0 || r.AnalyticMCUMJ <= 0 {
				t.Fatalf("%s/%s has empty columns: %+v", tab.ID, r.Label, r)
			}
		}
	}
}

// TestWorkersDoNotChangeTables: the regenerated table is deep-equal
// whether its rows run sequentially or fanned out — the experiments
// layer inherits the runner's determinism contract.
func TestWorkersDoNotChangeTables(t *testing.T) {
	seq := fast
	seq.Workers = 1
	par := fast
	par.Workers = 4
	a, err := Reproduce("table1", seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reproduce("table1", par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("table1 differs between workers=1 and workers=4:\n%+v\n%+v", a, b)
	}
}

func TestExtensionsFast(t *testing.T) {
	ext, err := Extensions(fast)
	if err != nil {
		t.Fatal(err)
	}
	// Shape assertions at the reduced window.
	if ext.MCUShareLowHz <= ext.MCUShareHighHz {
		t.Fatalf("µC share must grow at lower rates: %.1f vs %.1f",
			ext.MCUShareLowHz, ext.MCUShareHighHz)
	}
	if ext.ControlShare < 50 || ext.ControlShare > 100 {
		t.Fatalf("control share = %.1f%%", ext.ControlShare)
	}
	if ext.CrystalMissed != 0 || ext.DCOMissed == 0 {
		t.Fatalf("drift cliff wrong: crystal=%v dco=%v", ext.CrystalMissed, ext.DCOMissed)
	}
	// Everything Render prints under its "60 s basis" header is scaled
	// to it, the missed-beacon counts included: the 6 s run lands near
	// the full window's count, not a tenth of it.
	full, err := Extensions(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(ext.DCOMissed) / float64(full.DCOMissed); r < 0.8 || r > 1.25 {
		t.Fatalf("6 s run reports %v missed beacons, the 60 s run %v: not on one basis",
			ext.DCOMissed, full.DCOMissed)
	}
	if ext.NoisyRadioMJ <= ext.CleanRadioMJ {
		t.Fatalf("bit errors did not cost radio energy: clean %.1f, noisy %.1f mJ",
			ext.CleanRadioMJ, ext.NoisyRadioMJ)
	}
	if ext.SimVsAnalytic <= 0 || ext.SimVsAnalytic > 3 {
		t.Fatalf("event simulator vs analytic model on table1: %.2f%%", ext.SimVsAnalytic)
	}
	if !(ext.MCU1MHz < ext.MCU4MHz && ext.MCU4MHz < ext.MCU8MHz) {
		t.Fatalf("clock scaling not monotone: %.1f %.1f %.1f",
			ext.MCU1MHz, ext.MCU4MHz, ext.MCU8MHz)
	}
	if !(ext.HRVTotalMJ < ext.RpeakTotalMJ && ext.RpeakTotalMJ < ext.StreamingTotalMJ) {
		t.Fatalf("ladder not monotone: %.1f %.1f %.1f",
			ext.StreamingTotalMJ, ext.RpeakTotalMJ, ext.HRVTotalMJ)
	}
	out := ext.Render()
	if !strings.Contains(out, "EXTENSION EXPERIMENTS") ||
		!strings.Contains(out, "preprocessing ladder") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFigure4Fast(t *testing.T) {
	bars, err := Figure4(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 2 {
		t.Fatalf("bars = %d", len(bars))
	}
	saving := 1 - bars[1].Total()/bars[0].Total()
	if saving < 0.5 || saving > 0.8 {
		t.Fatalf("saving = %.2f, want ~0.65", saving)
	}
}

// TestCancelledContextSalvagesPartialTables: a context cancelled before
// dispatch leaves every row omitted, but the tables still assemble with
// the paper columns intact and render as PARTIAL instead of erroring.
func TestCancelledContextSalvagesPartialTables(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := fast
	opts.Ctx = ctx
	tabs, err := ReproduceAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tab := range tabs {
		if !tab.Partial() || tab.OmittedRows() != len(tab.Rows) {
			t.Fatalf("%s: omitted %d/%d rows, want all", tab.ID, tab.OmittedRows(), len(tab.Rows))
		}
		for _, r := range tab.Rows {
			if r.Omitted != "skipped: interrupted" {
				t.Fatalf("%s/%s omitted = %q", tab.ID, r.Label, r.Omitted)
			}
			if r.RadioRealMJ == 0 && r.MCURealMJ == 0 {
				t.Fatalf("%s/%s lost its paper columns", tab.ID, r.Label)
			}
		}
		if out := tab.Render(); !strings.Contains(out, "PARTIAL") {
			t.Fatalf("partial table renders without the marker:\n%s", out)
		}
	}
}

// TestCancelledContextFailsFigure4AndExtensions: the cross-point
// figures cannot salvage a partial batch, so cancellation is an error.
func TestCancelledContextFailsFigure4AndExtensions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := fast
	opts.Ctx = ctx
	if _, err := Figure4(opts); err == nil {
		t.Fatal("Figure4 accepted a cancelled batch")
	}
	if _, err := Extensions(opts); err == nil {
		t.Fatal("Extensions accepted a cancelled batch")
	}
}
