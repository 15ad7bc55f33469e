package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
)

const (
	// rounds interleave the workloads so host drift hits all of them
	// alike.
	rounds = 10
	// tracedRounds alternate untraced and traced blocks. Every block runs
	// at least one iteration; fewer rounds than the timed phase keep ten
	// paper-tables blocks (one ~1.4 s iteration each) within a short
	// budget.
	tracedRounds = 5
	// setupBatchesPerRound set-up batches of setupBatch runs each open a
	// workload's share of every round. A single-config batch allocates
	// about 1.3 MB, so after the collection before it none falls inside it.
	setupBatchesPerRound = 5
	setupBatch           = 20
	// calibShare is the calibration time kept between a workload's
	// untraced iterations, as a share of their time: one ~50 ms reading
	// every few short iterations, several after each paper-tables one.
	calibShare = 0.2
	// calibNominalMS is the calibration time of the nominal host that the
	// end-to-end timings are scaled to.
	calibNominalMS = 50.0
)

// sample is one timed iteration.
type sample struct {
	wall   time.Duration
	allocs uint64
	bytes  uint64
}

// bench is the measurement state of one workload.
type bench struct {
	w        *workload
	ref      reference
	untraced []sample
	// baseline and traced alternate in the traced phase; their medians
	// give the trace overhead.
	baseline []sample
	traced   []sample
	// cpuWeight and allocWeight accumulate the traced blocks' folds.
	cpuWeight   map[string]float64
	allocWeight map[string]float64
	// setups are seconds per set-up, one per batch.
	setups []float64
	// calib are the calibration readings, in ms, taken between this
	// workload's untraced iterations; calibTime and iterTime total the
	// two.
	calib               []float64
	calibTime, iterTime time.Duration
	attempted           int
	failed              int
	// failures keeps the first few failure reasons for the report.
	failures []string
}

// record counts one attempted operation and, when err is set, its failure.
func (b *bench) record(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 3 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// note records an iteration, which fails unless it reproduced the
// reference fingerprint.
func (b *bench) note(fp string, err error) {
	if err == nil && fp != b.ref.fingerprint {
		err = fmt.Errorf("fingerprint %q differs from the reference %q", fp, b.ref.fingerprint)
	}
	b.record(err)
}

// timed runs one iteration after a collection taken outside the timer.
func timed(w *workload) (sample, string, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fp, err := w.iterate()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return sample{wall: wall, allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}, fp, err
}

// runUntil runs closed-loop iterations, at least one, and stops before
// one that would end past the deadline. With calibrate set, calibration
// readings follow the iterations to keep their time at calibShare.
func (b *bench) runUntil(deadline time.Time, into *[]sample, calibrate bool) {
	for {
		s, fp, err := timed(b.w)
		b.note(fp, err)
		*into = append(*into, s)
		if calibrate {
			b.iterTime += s.wall
			for float64(b.calibTime) < calibShare*float64(b.iterTime) {
				b.calibrate()
			}
		}
		if time.Now().Add(s.wall).After(deadline) {
			return
		}
	}
}

// timeSetup times one batch of set-ups: core.Run on the workload's
// configs cut to a 1 ns span, setupBatch times over.
func (b *bench) timeSetup() {
	cfgs := b.w.setupConfigs()
	runtime.GC()
	start := time.Now()
	for i := 0; i < setupBatch; i++ {
		for _, c := range cfgs {
			if _, err := core.Run(c); err != nil {
				b.record(err)
				return
			}
		}
	}
	b.setups = append(b.setups, time.Since(start).Seconds()/setupBatch)
	b.record(nil)
}

// schedule spreads one workload's time in a phase over equal parts. The
// time a part leaves unused, or overruns by, carries over to the next, so
// a workload whose iterations are long against a part (paper-tables) still
// gets its whole share and no more.
type schedule struct {
	total time.Duration
	parts int
	done  int
	spent time.Duration
}

// next runs f with the deadline of the next part and books its time.
func (s *schedule) next(f func(deadline time.Time)) {
	s.done++
	start := time.Now()
	f(start.Add(s.total*time.Duration(s.done)/time.Duration(s.parts) - s.spent))
	s.spent += time.Since(start)
}

// measure runs the untraced rounds, giving every workload perWorkload in
// total. An opening calibration reading brackets the first iterations.
func measure(benches []*bench, perWorkload time.Duration) {
	scheds := make([]schedule, len(benches))
	for i, b := range benches {
		b.calibrate()
		scheds[i] = schedule{total: perWorkload, parts: rounds}
	}
	for r := 0; r < rounds; r++ {
		for i, b := range benches {
			scheds[i].next(func(deadline time.Time) {
				for j := 0; j < setupBatchesPerRound; j++ {
					b.timeSetup()
				}
				b.runUntil(deadline, &b.untraced, true)
			})
		}
	}
}

// traceRounds runs the traced phase: in every round each workload runs an
// untraced block and then a block under the CPU profiler, perWorkload/2
// each in total, so host drift hits both halves alike. It returns one
// calibration reading per round.
func traceRounds(benches []*bench, perWorkload time.Duration) []float64 {
	var calib []float64
	scheds := make([]schedule, len(benches))
	for i := range scheds {
		scheds[i] = schedule{total: perWorkload, parts: 2 * tracedRounds}
	}
	for r := 0; r < tracedRounds; r++ {
		calib = append(calib, calibrate())
		for i, b := range benches {
			scheds[i].next(func(deadline time.Time) { b.runUntil(deadline, &b.baseline, false) })
			scheds[i].next(func(deadline time.Time) {
				if err := b.traceBlock(deadline); err != nil {
					b.record(err)
				}
			})
		}
	}
	return calib
}

// traceBlock runs one block of iterations under the CPU profiler and adds
// its CPU and allocation profiles, folded by layer, to the bench's
// weights. Allocations are the MemProfile delta at the runtime's default
// sampling rate, which untraced runs have on too.
func (b *bench) traceBlock(deadline time.Time) error {
	runtime.GC()
	before := memProfile()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	b.runUntil(deadline, &b.traced, false)
	pprof.StopCPUProfile()
	runtime.GC()
	addAllocs(b.allocWeight, before, memProfile())
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	addCPU(b.cpuWeight, p)
	return nil
}

// calibrate takes one calibration reading for this workload.
func (b *bench) calibrate() {
	ms := calibrate()
	b.calib = append(b.calib, ms)
	b.calibTime += time.Duration(ms * float64(time.Millisecond))
}

// hostScale is the factor that puts this workload's timings on the
// nominal host: co-tenants on a shared machine slow the simulator and the
// calibration job alike, so the ratio is far steadier than either. The
// mean, not the median, tracks how much of the run a slow spell covered.
func (b *bench) hostScale() float64 { return calibNominalMS / mean(b.calib) }

var calibSink float64

// calibrate times a fixed stdlib-only job, sorting 200k floats and
// churning a map, as a host-speed reading in ms. It shares no code with
// the simulator, so a change to the repository cannot move it.
func calibrate() float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	runtime.GC()
	start := time.Now()
	sort.Float64s(xs)
	m := make(map[int]int)
	for i := 0; i < 1000000; i++ {
		m[i&8191] += i
		if i%3 == 0 {
			delete(m, (i*7)&8191)
		}
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	calibSink = xs[0] + float64(len(m))
	return ms
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// mean is NaN for no samples, which the report counts as a failure.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is NaN for no samples, which the report counts as a failure.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs (NaN for none).
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	return s[max(int(math.Ceil(float64(len(s))*p/100))-1, 0)]
}

// column extracts one field of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func wallMS(s sample) float64 { return float64(s.wall.Nanoseconds()) / 1e6 }
