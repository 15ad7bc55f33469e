// Command benchmark is the end-to-end, layer-attributed benchmark of the
// BAN simulator. It runs five workloads through the public entry points
// (core.Run and experiments.ReproduceAll), checks every result against a
// reference fingerprint, and prints its metrics as one JSON line:
//
//	go run . --workload table1-stream --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer ones, from a profiled run folded by package and from drivers
// that time each layer's own functions. --workload all (the default) runs
// every workload interleaved and reports both sets. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// window, when positive, shortens the workloads' measurement windows
	// (see newWorkload); only the smoke test sets it.
	window sim.Time
}

func main() {
	var o options
	var traceFlag int
	var out string
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload")
	flag.IntVar(&traceFlag, "trace", 1, "0: end-to-end metrics; 1: per-layer metrics (both with --workload all)")
	flag.StringVar(&out, "out", "", "also write the result line to this file")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if out != "" {
		if err := os.WriteFile(out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures the selected workloads and writes a readable report to
// log. With one workload the metrics carry their plain names; with all
// of them each name is prefixed by its workload.
func run(o options, log io.Writer) (result, error) {
	names := workloadNames
	if o.workload != "all" {
		names = []string{o.workload}
	}
	var benches []*bench
	for _, n := range names {
		w, err := newWorkload(n, o.seed, o.window)
		if err != nil {
			return result{}, err
		}
		benches = append(benches, &bench{w: w, cpuWeight: map[string]float64{}, allocWeight: map[string]float64{}})
	}

	res := result{Metrics: map[string]metric{}}
	// The reference pass also warms caches and lazy set-up before timing.
	for _, b := range benches {
		var err error
		b.ref, err = b.w.runReference()
		b.record(err)
	}
	if tally(&res, benches) {
		measureAll(o, benches, res.Metrics, log)
		tally(&res, benches)
	}
	for _, b := range benches {
		for _, f := range b.failures {
			fmt.Fprintf(log, "%s: FAILED: %s\n", b.w.name, f)
		}
	}
	return res, nil
}

// measureAll runs the timed and traced phases and adds the metrics to
// out. One workload alone reports one metric set; all workloads report
// both, from an untraced and a traced phase of the full budget each.
func measureAll(o options, benches []*bench, out map[string]metric, log io.Writer) {
	budget := time.Duration(o.seconds * float64(time.Second))
	single := len(benches) == 1
	if !o.trace || !single {
		measure(benches, budget)
	}
	var calibMS float64
	var drv map[string]metric
	if o.trace {
		calibMS = median(traceRounds(benches, budget))
		drv = runDrivers(o.seed, benches[0].record)
	}
	for _, b := range benches {
		ms := map[string]metric{}
		if !o.trace || !single {
			for k, v := range b.endToEnd() {
				ms[k] = v
			}
		}
		if o.trace {
			for k, v := range b.perLayer(calibMS) {
				ms[k] = v
			}
			for k, v := range drv {
				ms[k] = v
			}
		}
		prefix := ""
		if !single {
			prefix = b.w.name + "."
		}
		for k, v := range ms {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				b.record(fmt.Errorf("metric %s is %v", k, v.Value))
				continue
			}
			out[prefix+k] = v
		}
		writeReport(log, b, ms)
	}
}

// tally sums the attempted and failed counts into res and reports
// whether nothing failed.
func tally(res *result, benches []*bench) bool {
	res.Attempted, res.Failed = 0, 0
	for _, b := range benches {
		res.Attempted += b.attempted
		res.Failed += b.failed
	}
	res.Correct = res.Failed == 0
	return res.Correct
}

// endToEnd derives the user-visible metrics from the untraced samples,
// with every time put on the nominal host (see hostScale). Throughput
// and time per event are over the whole run, total over total.
func (b *bench) endToEnd() map[string]metric {
	scale := b.hostScale()
	walls := column(b.untraced, wallMS)
	for i := range walls {
		walls[i] *= scale
	}
	meanS := mean(walls) / 1e3
	events := float64(b.ref.events)
	return map[string]metric{
		"sim_s_per_wall_s": {b.ref.simSeconds / meanS, "s/s"},
		"run_ms_p90":       {percentile(walls, 90), "ms"},
		"ns_per_event":     {meanS * 1e9 / events, "ns"},
		"allocs_per_event": {median(column(b.untraced, func(s sample) float64 { return float64(s.allocs) })) / events, "allocs/event"},
		"bytes_per_event":  {median(column(b.untraced, func(s sample) float64 { return float64(s.bytes) })) / events, "B/event"},
		"setup_s":          {median(b.setups) * scale, "s"},
	}
}

// perLayer assembles the traced run's metrics: the CPU and allocation
// fold, the trace overhead, the exact work counts, the heap one result
// retains and the host reading.
func (b *bench) perLayer(calibMS float64) map[string]metric {
	out := map[string]metric{}
	cpu, alloc := shares(b.cpuWeight), shares(b.allocWeight)
	for _, l := range layers {
		out[l+".cpu_pct"] = metric{cpu[l], "%"}
		out[l+".alloc_pct"] = metric{alloc[l], "%"}
	}
	traced := median(column(b.traced, wallMS))
	untraced := median(column(b.baseline, wallMS))
	out["trace_overhead_pct"] = metric{(traced/untraced - 1) * 100, "%"}
	for _, n := range countNames {
		out[n] = metric{b.ref.counts[n], "count"}
	}
	out["result_heap_mb"] = metric{b.ref.heapMB, "MB"}
	out["host_calib_ms"] = metric{calibMS, "ms"}
	return out
}

// writeReport writes one workload's section of the readable report.
func writeReport(log io.Writer, b *bench, ms map[string]metric) {
	fmt.Fprintf(log, "\n%s: %d untraced runs; %d traced, %d baseline; %d events per run\n",
		b.w.name, len(b.untraced), len(b.traced), len(b.baseline), b.ref.events)
	fmt.Fprintf(log, "  fingerprint %s\n", b.ref.fingerprint)
	if b.w.fidelity != "" {
		fmt.Fprintf(log, "  fidelity    %s\n", b.w.fidelity)
	}
	if len(b.calib) > 0 {
		fmt.Fprintf(log, "  host        calibration mean %.2f ms over %d readings; times scaled by %.3f (raw mean run %.2f ms)\n",
			mean(b.calib), len(b.calib), b.hostScale(), mean(column(b.untraced, wallMS)))
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-30s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
