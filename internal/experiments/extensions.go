package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/platform"
	"repro/internal/runner"
	"repro/internal/sim"
)

// ExtensionResults aggregates the extension-experiment metrics reported
// in EXPERIMENTS.md. Energies and counts are on the paper's 60 s basis.
type ExtensionResults struct {
	// MCUShareHighHz / LowHz: µC share of radio+µC energy at the Table 1
	// extremes (205 Hz/30 ms and 55 Hz/120 ms).
	MCUShareHighHz, MCUShareLowHz float64
	// ControlShare: control-overhead share of streaming radio energy.
	ControlShare float64
	// Channel errors: radio energy of a 3-node 205 Hz/30 ms streaming
	// BAN on a clean channel and at a 5e-4 bit error rate.
	CleanRadioMJ, NoisyRadioMJ float64
	// SimVsAnalytic: the largest relative gap (%) between the event
	// simulator and the closed-form model on Table 1's radio energy.
	SimVsAnalytic float64
	// Drift: radio energy and missed beacons at crystal (50 ppm) and
	// DCO-grade (3%) clock error, 120 ms cycle.
	CrystalRadioMJ, DCORadioMJ float64
	CrystalMissed, DCOMissed   float64
	// Clock scaling: Rpeak µC energy at 8/4/1 MHz.
	MCU8MHz, MCU4MHz, MCU1MHz float64
	// Ladder: total (radio+µC) energy of the preprocessing staircase.
	StreamingTotalMJ, RpeakTotalMJ, HRVTotalMJ float64
}

// Extensions runs the extension experiments at the given options. Its
// first points are Table 1's rows: the µC share, the control share, the
// ladder's streaming rung and the sim-vs-analytic gap come from them.
// All thirteen simulations are independent, so they go through the
// runner as one batch.
func Extensions(o Options) (ExtensionResults, error) {
	var out ExtensionResults
	t1, _ := specFor("table1")
	var points []runner.Point
	for _, row := range t1.data.Rows {
		points = append(points, runner.Point{Label: row.Label, Config: rowConfig(t1, row, o)})
	}
	add := func(label string, cfg core.Config) {
		cfg.Duration = o.window()
		cfg.Seed = o.seed()
		points = append(points, runner.Point{Label: label, Config: cfg})
	}

	noisy := core.Config{Variant: mac.Static, Nodes: 3, Cycle: 30 * sim.Millisecond,
		App: core.AppStreaming, SampleRateHz: 205}
	add("ber-clean", noisy)
	noisy.BER = 5e-4
	add("ber-noisy", noisy)

	driftCfg := core.Config{Variant: mac.Static, Nodes: 1, Cycle: 120 * sim.Millisecond,
		App: core.AppStreaming, SampleRateHz: 55}
	driftCfg.ClockDriftPPM = 50
	add("drift-crystal", driftCfg)
	driftCfg.ClockDriftPPM = 30000
	add("drift-dco", driftCfg)

	for _, hz := range []float64{8e6, 4e6, 1e6} {
		prof := platform.IMEC()
		prof.MCU = prof.MCU.AtClock(hz)
		add(fmt.Sprintf("clock-%gMHz", hz/1e6), core.Config{Variant: mac.Static, Nodes: 1,
			Cycle: 120 * sim.Millisecond, App: core.AppRpeak, Profile: &prof})
	}

	add("ladder-rpeak", core.Config{Variant: mac.Static, Nodes: 5,
		Cycle: 120 * sim.Millisecond, App: core.AppRpeak})
	add("ladder-hrv", core.Config{Variant: mac.Static, Nodes: 5,
		Cycle: 120 * sim.Millisecond, App: core.AppHRV})

	results := runner.RunCtx(o.ctx(), points, runner.Options{Workers: o.Workers})
	if n := runner.Skipped(results); n > 0 {
		// The extension metrics are cross-point ratios; a partial batch
		// has nothing to salvage.
		return out, fmt.Errorf("experiments: interrupted: %d point(s) skipped", n)
	}
	if err := runner.FirstErr(results); err != nil {
		return out, fmt.Errorf("experiments: %w", err)
	}
	node := func(i int) core.NodeResult { return results[i].Res.Node() }
	for i, row := range t1.data.Rows {
		an, err := analyticRow(t1, row, o)
		if err != nil {
			return out, err
		}
		out.SimVsAnalytic = math.Max(out.SimVsAnalytic, math.Abs(node(i).RadioMJ()-an.RadioMJ())/an.RadioMJ()*100)
	}
	s := o.scale()
	hi, lo := node(0), node(3)
	out.MCUShareHighHz = hi.MCUMJ() / hi.TotalMJ() * 100
	out.MCUShareLowHz = lo.MCUMJ() / lo.TotalMJ() * 100
	out.ControlShare = hi.Energy.Losses.Get(energy.LossControl) * 1e3 / hi.RadioMJ() * 100
	out.StreamingTotalMJ = hi.TotalMJ() * s

	out.CleanRadioMJ = node(4).RadioMJ() * s
	out.NoisyRadioMJ = node(5).RadioMJ() * s

	crystal, dco := node(6), node(7)
	out.CrystalRadioMJ = crystal.RadioMJ() * s
	out.DCORadioMJ = dco.RadioMJ() * s
	out.CrystalMissed = float64(crystal.Mac.BeaconsMissed) * s
	out.DCOMissed = float64(dco.Mac.BeaconsMissed) * s

	out.MCU8MHz = node(8).MCUMJ() * s
	out.MCU4MHz = node(9).MCUMJ() * s
	out.MCU1MHz = node(10).MCUMJ() * s

	out.RpeakTotalMJ = node(11).TotalMJ() * s
	out.HRVTotalMJ = node(12).TotalMJ() * s
	return out, nil
}

// Render formats the extension results for the terminal.
func (e ExtensionResults) Render() string {
	var b strings.Builder
	b.WriteString("EXTENSION EXPERIMENTS (60 s basis)\n")
	fmt.Fprintf(&b, "  uC share of radio+uC energy: %.1f%% at 205Hz/30ms, %.1f%% at 55Hz/120ms\n",
		e.MCUShareHighHz, e.MCUShareLowHz)
	fmt.Fprintf(&b, "  control overhead share of streaming radio energy: %.1f%%\n", e.ControlShare)
	fmt.Fprintf(&b, "  channel errors @3 nodes, 205Hz/30ms: BER 0 -> %.1f mJ radio, BER 5e-4 -> %.1f mJ radio (%+.1f%%)\n",
		e.CleanRadioMJ, e.NoisyRadioMJ, (e.NoisyRadioMJ-e.CleanRadioMJ)/e.CleanRadioMJ*100)
	fmt.Fprintf(&b, "  event simulator vs analytic model, table1 radio: max |gap| %.1f%%\n", e.SimVsAnalytic)
	fmt.Fprintf(&b, "  clock drift @120ms cycle: 50ppm -> %.1f mJ radio, %.0f missed beacons\n",
		e.CrystalRadioMJ, e.CrystalMissed)
	fmt.Fprintf(&b, "                            3%%    -> %.1f mJ radio, %.0f missed beacons\n",
		e.DCORadioMJ, e.DCOMissed)
	fmt.Fprintf(&b, "  MCU clock scaling (rpeak uC): 8MHz %.1f mJ, 4MHz %.1f mJ, 1MHz %.1f mJ\n",
		e.MCU8MHz, e.MCU4MHz, e.MCU1MHz)
	fmt.Fprintf(&b, "  preprocessing ladder (radio+uC): streaming %.1f -> rpeak %.1f -> hrv %.1f mJ\n",
		e.StreamingTotalMJ, e.RpeakTotalMJ, e.HRVTotalMJ)
	return b.String()
}
