// Package ecg synthesises electrocardiogram signals and implements the
// R-peak (heart beat) detector the paper's second application runs on the
// node (§5.2).
//
// The paper drives its Rpeak experiments with a recorded ECG at 75
// beats/min; with no access to that recording, this package generates the
// classic sum-of-Gaussians PQRST morphology (the same shape family as the
// McSharry dynamical ECG model) with configurable heart rate, per-beat
// jitter, measurement noise and baseline wander. Only the beat rate and
// the per-sample compute path matter to the energy experiments, which the
// synthetic signal reproduces exactly.
package ecg

import (
	"math"

	"repro/internal/approx"
	"repro/internal/codec"
)

// wave is one Gaussian component of the PQRST complex.
type wave struct {
	offset float64 // seconds relative to the R peak
	amp    float64 // relative amplitude
	sigma  float64 // seconds
}

// pqrst is the canonical beat morphology (amplitudes relative to R).
var pqrst = []wave{
	{offset: -0.200, amp: 0.15, sigma: 0.025},  // P
	{offset: -0.025, amp: -0.12, sigma: 0.010}, // Q
	{offset: 0.000, amp: 1.00, sigma: 0.011},   // R
	{offset: 0.025, amp: -0.20, sigma: 0.010},  // S
	{offset: 0.220, amp: 0.30, sigma: 0.045},   // T
}

// Params configures a generator.
type Params struct {
	// HeartRateBPM is the mean beat rate.
	HeartRateBPM float64
	// JitterFrac adds deterministic per-beat timing jitter as a fraction
	// of the beat period (heart-rate variability). Zero disables it.
	JitterFrac float64
	// NoiseAmp is the peak amplitude of the additive measurement noise
	// relative to the R peak.
	NoiseAmp float64
	// BaselineAmp is the amplitude of the 0.3 Hz respiratory baseline
	// wander.
	BaselineAmp float64
	// Amplitude scales the whole signal into the ADC's [-1, 1] input
	// range; 0 selects the 0.6 default (headroom for wander + noise).
	Amplitude float64
	// Seed drives the deterministic jitter and noise streams.
	Seed int64
}

// Generator produces a deterministic synthetic ECG: the value at a given
// time never depends on evaluation order, so simulations remain
// reproducible regardless of event interleaving.
//
// A run shares one generator across its nodes, so every node and
// channel asks for the same sample instants; SampleAt memoises the clean
// signal per instant in a small direct-mapped table and evaluates the
// sum of Gaussians once per instant instead of once per node and
// channel. The memo makes a Generator unsafe for concurrent use: give
// each goroutine its own.
type Generator struct {
	p      Params
	period float64
	memo   []memoEntry // allocated on the first SampleAt
}

// memoSize is the number of entries in the clean-signal memo (a power of
// two). Nodes start sampling a few cycles apart, so their sample indices
// trail each other by tens of instants; 1024 entries cover about five
// seconds at the paper's highest rate.
const memoSize = 1024

// memoEntry caches ValueAt(t) under the bit pattern of t. The empty key
// is the bit pattern of NaN, which no sample instant has.
type memoEntry struct {
	key uint64
	v   float64
}

// emptyKey marks an unused memo entry.
var emptyKey = math.Float64bits(math.NaN())

// NewGenerator validates params and builds a generator.
func NewGenerator(p Params) *Generator {
	if p.HeartRateBPM <= 0 {
		panic("ecg: heart rate must be positive")
	}
	if approx.Unset(p.Amplitude) {
		p.Amplitude = 0.6
	}
	return &Generator{p: p, period: 60.0 / p.HeartRateBPM}
}

// Period reports the mean beat period in seconds.
func (g *Generator) Period() float64 { return g.period }

// splitmix64 is a tiny deterministic hash used for per-beat jitter and
// per-sample noise, keeping the generator free of stateful RNGs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a hash to [-1, 1).
func unit(x uint64) float64 {
	return float64(x>>11)/float64(1<<53)*2 - 1
}

// beatTime reports the R-peak instant of beat k (k may be negative).
func (g *Generator) beatTime(k int64) float64 {
	t := (float64(k) + 0.5) * g.period
	if g.p.JitterFrac > 0 {
		j := unit(splitmix64(uint64(k) ^ uint64(g.p.Seed)))
		t += j * g.p.JitterFrac * g.period
	}
	return t
}

// ValueAt evaluates the clean signal (morphology + baseline wander,
// without measurement noise) at time t seconds, in R-peak-relative units
// scaled by Amplitude.
func (g *Generator) ValueAt(t float64) float64 {
	k := int64(math.Floor(t / g.period))
	var v float64
	// Neighbouring beats can contribute through their P/T tails.
	for dk := int64(-1); dk <= 1; dk++ {
		r := g.beatTime(k + dk)
		for _, w := range pqrst {
			d := t - (r + w.offset)
			v += w.amp * math.Exp(-d*d/(2*w.sigma*w.sigma))
		}
	}
	v += g.p.BaselineAmp * math.Sin(2*math.Pi*0.3*t)
	return v * g.p.Amplitude
}

// SampleAt produces the quantised ADC reading of sample index i of
// channel ch at sampling rate fs, including deterministic per-sample
// noise. Distinct channels see the same heart with decorrelated noise.
func (g *Generator) SampleAt(ch int, i int64, fs float64) codec.Sample {
	t := float64(i) / fs
	v := g.clean(i, t)
	if g.p.NoiseAmp > 0 {
		h := splitmix64(uint64(i)*2654435761 ^ uint64(ch)<<32 ^ uint64(g.p.Seed))
		v += unit(h) * g.p.NoiseAmp * g.p.Amplitude
	}
	return codec.Quantize(v)
}

// clean is ValueAt(t) through the memo. Sample i of any rate lands in
// entry i mod memoSize, so consecutive instants never evict each other;
// two rates sharing the generator (a downshifted node beside full-rate
// ones) only cost each other misses, never a wrong value, because the
// key is t itself.
func (g *Generator) clean(i int64, t float64) float64 {
	if g.memo == nil {
		g.initMemo()
	}
	key := math.Float64bits(t)
	if key == emptyKey {
		return g.ValueAt(t)
	}
	e := &g.memo[uint64(i)&(memoSize-1)]
	if e.key != key {
		e.key, e.v = key, g.ValueAt(t)
	}
	return e.v
}

// initMemo allocates the memo on the generator's first sample, so a run
// that never samples (a set-up, an EEG-only network) never pays for it.
//
//lint:allow hotalloc the memo is allocated once per generator, on its first sample
func (g *Generator) initMemo() {
	g.memo = make([]memoEntry, memoSize)
	for j := range g.memo {
		g.memo[j].key = emptyKey
	}
}

// BeatTimes lists the ground-truth R-peak instants in [t0, t1), for
// detector validation.
func (g *Generator) BeatTimes(t0, t1 float64) []float64 {
	var out []float64
	for k := int64(math.Floor(t0/g.period)) - 1; ; k++ {
		t := g.beatTime(k)
		if t >= t1 {
			break
		}
		if t >= t0 {
			out = append(out, t)
		}
	}
	return out
}
