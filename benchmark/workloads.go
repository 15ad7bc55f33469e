package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"

	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/paperdata"
	"repro/internal/report"
	"repro/internal/sim"
)

// Fidelity gate for paper-tables: the average over Tables 1-4 of the mean
// absolute error against the paper's measured columns may not exceed the
// baseline (2.975% radio, 4.712% MCU at seeds 1-10) by more than 0.1
// percentage point. Applied only at the paper's own 60 s window.
const (
	maxRadioErrVsRealPct = 3.075
	maxMCUErrVsRealPct   = 4.812
)

// chaos-observed's degradation watermarks, as fractions of full charge:
// on its shrunken cell they engage one after another and the first node
// dies at 50.8 s on seed 1.
const (
	chaosStretchSOC    = 0.5
	chaosDownshiftSOC  = 0.3
	chaosBeaconOnlySOC = 0.08
)

// workload is one set of inputs the benchmark runs. One iteration is one
// closed-loop job: a single core.Run, or for paper-tables one
// experiments.ReproduceAll over all 18 published rows.
type workload struct {
	name string
	// configs are the simulations behind one iteration: the scenario, or
	// the 18 table rows in paper order, rebuilt from paperdata exactly as
	// experiments shapes them (the reference pass checks the rebuild
	// against ReproduceAll bit for bit).
	configs []core.Config
	// tables selects the ReproduceAll iteration; opts are its options.
	tables bool
	opts   experiments.Options
	// audited workloads fail on any audit violation or dropped row.
	audited bool
	// fidelity is the last paper-tables iteration's error against the
	// paper's measured columns, for the report.
	fidelity string
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"table1-stream", "lpl-stream", "rpeak-onnode", "chaos-observed", "paper-tables"}

// newWorkload builds the named workload from the seed. window, when
// positive, replaces the measurement window of every workload except
// chaos-observed, whose fault and battery timeline is the workload; the
// smoke test uses it to stay fast.
func newWorkload(name string, seed int64, window sim.Time) (*workload, error) {
	win := func(d sim.Time) sim.Time {
		if window > 0 {
			return window
		}
		return d
	}
	w := &workload{name: name}
	switch name {
	case "table1-stream":
		w.configs = []core.Config{{Variant: mac.Static, Nodes: 5, Cycle: 30 * sim.Millisecond,
			App: core.AppStreaming, SampleRateHz: 205, Duration: win(60 * sim.Second), Seed: seed}}
	case "lpl-stream":
		// The default 3 s warm-up leaves about one seed in four with a node
		// still associating at measurement start; 15 s joined every node
		// for each of 4000 seeds.
		w.configs = []core.Config{{Protocol: mac.ProtoLPL, Nodes: 5, App: core.AppStreaming,
			SampleRateHz: 205, Warmup: 15 * sim.Second, Duration: win(30 * sim.Second), Seed: seed}}
	case "rpeak-onnode":
		w.configs = []core.Config{{Variant: mac.Static, Nodes: 5, Cycle: 120 * sim.Millisecond,
			App: core.AppRpeak, Duration: win(60 * sim.Second), Seed: seed}}
	case "chaos-observed":
		cell := battery.CR2032()
		cell.CapacityMAh *= 4e-4
		w.audited = true
		w.configs = []core.Config{{Protocol: mac.ProtoCSMA, Nodes: 5, App: core.AppStreaming,
			SampleRateHz: 55, Duration: 60 * sim.Second, Seed: seed, BER: 2e-4, Metrics: true,
			Audit: &audit.Config{Every: 100 * sim.Millisecond},
			Faults: []fault.Fault{
				{Kind: fault.KindCrash, Node: 2, At: 20 * sim.Second, RebootAfter: 2 * sim.Second},
				{Kind: fault.KindInterference, At: 40 * sim.Second, Until: 41 * sim.Second},
			},
			Battery: &cell,
			Degrade: &battery.DegradePolicy{StretchSOC: chaosStretchSOC, StretchEvery: 3,
				DownshiftSOC: chaosDownshiftSOC, BeaconOnlySOC: chaosBeaconOnlySOC},
		}}
	case "paper-tables":
		w.tables = true
		w.opts = experiments.Options{Seed: seed, Duration: window, Workers: 1}
		if seed == 0 {
			seed = 1 // experiments.Options maps seed 0 to 1
		}
		for i, t := range paperdata.Tables() {
			// Tables 1 and 3 run static TDMA, 2 and 4 dynamic; 1 and 2
			// stream, 3 and 4 detect beats on the node.
			variant, app := mac.Static, core.AppStreaming
			if i%2 == 1 {
				variant = mac.Dynamic
			}
			if i >= 2 {
				app = core.AppRpeak
			}
			for _, row := range t.Rows {
				cfg := core.Config{Variant: variant, Nodes: row.Nodes, App: app,
					SampleRateHz: row.SampleRateHz, Duration: win(paperdata.Window), Seed: seed}
				if variant == mac.Static {
					cfg.Cycle = row.Cycle
				}
				w.configs = append(w.configs, cfg)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	return w, nil
}

// iterate runs one iteration and returns its fingerprint.
func (w *workload) iterate() (string, error) {
	if w.tables {
		reps, err := experiments.ReproduceAll(w.opts)
		if err != nil {
			return "", err
		}
		return w.checkTables(reps)
	}
	res, err := core.Run(w.configs[0])
	if err != nil {
		return "", err
	}
	return w.check(res)
}

// check applies the per-run correctness gate and returns the run's
// fingerprint: dispatched events, the reference node's energy bits and
// the channel statistics.
func (w *workload) check(res core.Results) (string, error) {
	if !res.JoinedAll {
		return "", errors.New("a node had not joined at measurement start")
	}
	if w.audited {
		if res.Audit == nil {
			return "", errors.New("audit summary missing")
		}
		if res.Audit.Failed() {
			return "", fmt.Errorf("audit: %d violation(s), %d dropped", len(res.Audit.Violations), res.Audit.Dropped)
		}
	}
	return fmt.Sprintf("events=%d energy=%016x channel=%+v",
		res.KernelEvents, math.Float64bits(res.Node().Energy.TotalJ), res.Channel), nil
}

// tableHash fingerprints the paper-tables rows: their count and the bits
// of each reference node's radio and MCU energy, in row order.
type tableHash struct {
	rows int
	h    hash.Hash64
}

func newTableHash() *tableHash { return &tableHash{h: fnv.New64a()} }

func (t *tableHash) add(radioMJ, mcuMJ float64) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], math.Float64bits(radioMJ))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(mcuMJ))
	t.h.Write(b[:])
	t.rows++
}

func (t *tableHash) String() string {
	return fmt.Sprintf("rows=%d energy=%016x", t.rows, t.h.Sum64())
}

// checkTables applies the paper-tables gate (every row present and, at
// the paper's window, the fidelity bound) and fingerprints the rows'
// energies.
func (w *workload) checkTables(reps []report.TableReport) (string, error) {
	fp := newTableHash()
	var radioErr, mcuErr float64
	for _, t := range reps {
		if n := t.OmittedRows(); n > 0 {
			return "", fmt.Errorf("%s: %d row(s) omitted", t.ID, n)
		}
		for _, c := range t.Rows {
			fp.add(c.OursRadioMJ, c.OursMCUMJ)
		}
		radioErr += t.AvgAbsRadioErrVsReal() / float64(len(reps))
		mcuErr += t.AvgAbsMCUErrVsReal() / float64(len(reps))
	}
	if fp.rows != len(w.configs) {
		return "", fmt.Errorf("%d table rows, want %d", fp.rows, len(w.configs))
	}
	fullWindow := w.opts.Duration <= 0 || w.opts.Duration == paperdata.Window
	if fullWindow && (radioErr > maxRadioErrVsRealPct || mcuErr > maxMCUErrVsRealPct) {
		return "", fmt.Errorf("fidelity: radio error %.3f%% (max %.3f), MCU error %.3f%% (max %.3f)",
			radioErr, maxRadioErrVsRealPct, mcuErr, maxMCUErrVsRealPct)
	}
	w.fidelity = fmt.Sprintf("radio_err_vs_real=%.3f%% mcu_err_vs_real=%.3f%%", radioErr, mcuErr)
	return fp.String(), nil
}

// reference is what one untimed pass over the workload's configs yields:
// the fingerprint every later iteration must reproduce, the exact work
// counts, the simulated span (warm-up plus window, summed over table
// rows) and the heap the results retain.
type reference struct {
	fingerprint string
	events      uint64
	simSeconds  float64
	counts      map[string]float64
	heapMB      float64
}

// countNames are the per-layer work counts, summed over all sensor nodes
// (and over the table rows).
var countNames = []string{"sim.events", "radio.tx_frames", "channel.transmissions",
	"channel.collisions", "mac.data_sent", "mac.retries", "mac.cca_attempts",
	"mac.strobes_sent", "app.packets_sent", "metrics.trace_events"}

// runReference runs every config once, holding all results, and measures
// the live heap they retain after a collection.
func (w *workload) runReference() (reference, error) {
	ref := reference{counts: map[string]float64{}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	results := make([]core.Results, len(w.configs))
	for i, c := range w.configs {
		res, err := core.Run(c)
		if err != nil {
			return ref, err
		}
		results[i] = res
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	ref.heapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6

	rows := newTableHash()
	for i, res := range results {
		ref.events += res.KernelEvents
		ref.simSeconds += (res.Config.Warmup + res.Config.Duration).Seconds()
		addCounts(ref.counts, res)
		if !w.tables {
			fp, err := w.check(res)
			if err != nil {
				return ref, err
			}
			ref.fingerprint = fp
			continue
		}
		if !res.JoinedAll {
			return ref, fmt.Errorf("table row %d: a node had not joined at measurement start", i+1)
		}
		// The same expression experiments uses to put a row on the
		// paper's 60 s basis, so the energies agree bit for bit.
		scale := float64(paperdata.Window) / float64(res.Config.Duration)
		n := res.Node()
		rows.add(n.RadioMJ()*scale, n.MCUMJ()*scale)
	}
	if w.tables {
		ref.fingerprint = rows.String()
	}
	return ref, nil
}

func addCounts(c map[string]float64, r core.Results) {
	c["sim.events"] += float64(r.KernelEvents)
	c["channel.transmissions"] += float64(r.Channel.Transmissions)
	c["channel.collisions"] += float64(r.Channel.Collisions)
	c["metrics.trace_events"] += float64(r.Trace.Recorded())
	for _, n := range r.Nodes {
		c["radio.tx_frames"] += float64(n.Radio.TxFrames)
		c["mac.data_sent"] += float64(n.Mac.DataSent)
		c["mac.retries"] += float64(n.Mac.Retries)
		c["mac.cca_attempts"] += float64(n.Mac.CCAAttempts)
		c["mac.strobes_sent"] += float64(n.Mac.StrobesSent)
		c["app.packets_sent"] += float64(n.PacketsSent)
	}
}

// setupConfigs are the workload's configs cut down to set-up alone: 1 ns
// warm-up and window, no faults (their instants would fall outside the
// span).
func (w *workload) setupConfigs() []core.Config {
	out := make([]core.Config, len(w.configs))
	for i, c := range w.configs {
		c.Warmup, c.Duration, c.Faults = 1, 1, nil
		out[i] = c
	}
	return out
}
