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
//
// Every float64(x*y) conversion around a product that is then added is
// the Go spec's way to round the product on its own: it stops a platform
// that has them (arm64) from fusing the pair into one multiply-add, which
// rounds once and could move a sample, so every platform computes the
// same samples and beats.
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
var pqrst = [...]wave{
	{offset: -0.200, amp: 0.15, sigma: 0.025},  // P
	{offset: -0.025, amp: -0.12, sigma: 0.010}, // Q
	{offset: 0.000, amp: 1.00, sigma: 0.011},   // R
	{offset: 0.025, amp: -0.20, sigma: 0.010},  // S
	{offset: 0.220, amp: 0.30, sigma: 0.045},   // T
}

// cutSigmas is the distance, in standard deviations, beyond which
// ValueAt skips a wave.
const cutSigmas = 8

// pqrstCut holds each pqrst wave's squared cut-off distance, (cutSigmas·σ)².
var pqrstCut = func() (cut [len(pqrst)]float64) {
	for j, w := range pqrst {
		c := cutSigmas * w.sigma
		cut[j] = c * c
	}
	return cut
}()

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
// channel asks for the same sample instants; SampleAt memoises the
// quantised samples of channels 0 and 1 of each instant in a small
// direct-mapped table, so the sum of Gaussians, the noise hash and the
// quantiser run once per instant instead of once per node and channel.
// The memo makes a Generator unsafe for concurrent use: give each
// goroutine its own.
type Generator struct {
	p      Params
	period float64
	memo   []memoEntry // allocated on the first SampleAt; a power of two long
	// memoLen is the length memo starts at: memoSize unless SizeMemo
	// set it.
	memoLen int
	// evals counts the clean values computed to fill memo entries.
	evals int64
}

// memoSize is the number of entries the sample memo starts with. A node
// samples from the instant it joins, so the indices of the nodes sharing
// the generator trail the leader's by the spread of their join instants:
// 0 for static TDMA, at most 12 instants for dynamic TDMA and CSMA, and
// 143 to 881 for LPL (seeds 1-8 of the lpl-stream benchmark), whose
// nodes join up to 4.3 s apart. 512 entries cover 2.5 s at the paper's
// highest rate, in 8 KiB; a lookup that finds a later instant of its
// slot's index already there is a reader trailing by more than the
// table, and doubles it, up to memoMaxSize entries.
const memoSize = 512

// memoMaxSize bounds the memo's growth: 4096 entries cover a trail of
// 20 s at 205 Hz, in 64 KiB.
const memoMaxSize = 4096

// memoChannels is the number of channels whose quantised samples the memo
// holds; SampleAt computes higher channels from the clean value afresh.
const memoChannels = 2

// memoEntry caches one sample instant under the bit pattern of t and the
// sample index i: the quantised samples of channels 0 and 1, both filled
// on the miss. The key holds i because the noise hashes i, so one instant
// reached at two rates has two sets of samples. The empty key is the bit
// pattern of NaN, which no sample instant has.
type memoEntry struct {
	key uint64
	i   int32
	s   [memoChannels]codec.Sample
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
	return &Generator{p: p, period: 60.0 / p.HeartRateBPM, memoLen: memoSize}
}

// SizeMemo sizes the sample memo, before the first sample, for readers
// that trail the leader by at most n sample instants, instead of
// memoSize's 512: the memo starts at the least power of two above n,
// and at least 16. A reader trailing further doubles it as usual. A run
// whose nodes join together (static TDMA, and dynamic TDMA and CSMA,
// whose trail is at most 12 instants) keeps a 1 KiB memo this way,
// not 8 KiB.
func (g *Generator) SizeMemo(n int) {
	if g.memo != nil {
		panic("ecg: SizeMemo after the first sample")
	}
	g.memoLen = 16
	for g.memoLen <= n && g.memoLen < memoMaxSize {
		g.memoLen *= 2
	}
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

// unit maps a hash to [-1, 1). Dividing by 2^52 scales exactly as
// dividing by 2^53 and doubling would, without a doubling that the
// compiler turns into an add and fuses.
func unit(x uint64) float64 {
	return float64(float64(x>>11)/float64(1<<52)) - 1
}

// beatTime reports the R-peak instant of beat k (k may be negative).
func (g *Generator) beatTime(k int64) float64 {
	t := float64((float64(k) + 0.5) * g.period)
	if g.p.JitterFrac > 0 {
		j := unit(splitmix64(uint64(k) ^ uint64(g.p.Seed)))
		t += float64(j * g.p.JitterFrac * g.period)
	}
	return t
}

// ValueAt evaluates the clean signal (morphology + baseline wander,
// without measurement noise) at time t seconds, in R-peak-relative units
// scaled by Amplitude.
//
// A wave whose centre lies more than cutSigmas (8) standard deviations
// from t is skipped. Each skipped term is below |amp|·e^(−32) ≈ 1.3·10⁻¹⁴
// with |amp| ≤ 1, and at most 15 are skipped, so together they are below
// 10⁻⁹ of one 12-bit LSB after scaling: a quantised sample can differ
// from the full sum only if its exact value lies that close to a
// quantisation boundary.
func (g *Generator) ValueAt(t float64) float64 {
	k := int64(math.Floor(t / g.period))
	var v float64
	// Neighbouring beats can contribute through their P/T tails.
	for dk := int64(-1); dk <= 1; dk++ {
		r := g.beatTime(k + dk)
		for j := range pqrst {
			w := &pqrst[j]
			d := t - (r + w.offset)
			if d*d > pqrstCut[j] {
				continue
			}
			v += float64(w.amp * math.Exp(-d*d/(2*w.sigma*w.sigma)))
		}
	}
	v += float64(g.p.BaselineAmp * math.Sin(2*math.Pi*0.3*t))
	return v * g.p.Amplitude
}

// SampleAt produces the quantised ADC reading of sample index i of
// channel ch at sampling rate fs, including deterministic per-sample
// noise. Distinct channels see the same heart with decorrelated noise.
func (g *Generator) SampleAt(ch int, i int64, fs float64) codec.Sample {
	t := float64(i) / fs
	if uint(ch) >= memoChannels {
		return g.sample(ch, i, g.ValueAt(t))
	}
	e := g.entry(i, t)
	if e == nil {
		return g.sample(ch, i, g.ValueAt(t))
	}
	return e.s[ch]
}

// sample adds channel ch's noise at index i to the clean value v and
// quantises the sum.
func (g *Generator) sample(ch int, i int64, v float64) codec.Sample {
	if g.p.NoiseAmp > 0 {
		h := splitmix64(uint64(i)*2654435761 ^ uint64(ch)<<32 ^ uint64(g.p.Seed))
		v += float64(unit(h) * g.p.NoiseAmp * g.p.Amplitude)
	}
	return codec.Quantize(v)
}

// entry returns the memo entry of sample i at instant t, holding its
// samples, or nil when t is the empty key or i lies outside the int32
// range. Sample i of any rate lands in entry i mod len(memo), so
// consecutive instants never evict each other; two rates sharing the
// generator (a downshifted node beside full-rate ones) only cost each
// other misses, never a wrong sample, because the key is (t, i) itself.
func (g *Generator) entry(i int64, t float64) *memoEntry {
	if g.memo == nil {
		g.memo = newMemo(g.memoLen)
	}
	key := math.Float64bits(t)
	if key == emptyKey || int64(int32(i)) != i {
		return nil
	}
	e := &g.memo[uint64(i)&uint64(len(g.memo)-1)]
	if e.key == key && int64(e.i) == i {
		return e
	}
	if int64(e.i) > i && math.Float64frombits(e.key) > t && len(g.memo) < memoMaxSize {
		// A reader trailing by more than the table: the instant it asks
		// for was evicted by a later one, as will be all its next ones.
		g.growMemo()
		e = &g.memo[uint64(i)&uint64(len(g.memo)-1)]
	}
	v := g.ValueAt(t)
	g.evals++
	*e = memoEntry{key: key, i: int32(i), s: [memoChannels]codec.Sample{g.sample(0, i, v), g.sample(1, i, v)}}
	return e
}

// newMemo allocates an empty memo of n entries: on the generator's first
// sample, so a run that never samples (a set-up, an EEG-only network)
// never pays for it, and when a trailing reader doubles it.
//
//lint:allow hotalloc the memo is allocated on a generator's first sample and at most three times more
func newMemo(n int) []memoEntry {
	memo := make([]memoEntry, n)
	for j := range memo {
		memo[j].key = emptyKey
	}
	return memo
}

// growMemo doubles the memo, keeping every entry: entries in distinct
// slots of the old table land in distinct slots of the new one.
func (g *Generator) growMemo() {
	memo := newMemo(2 * len(g.memo))
	for _, e := range g.memo {
		if e.key != emptyKey {
			memo[uint64(e.i)&uint64(len(memo)-1)] = e
		}
	}
	g.memo = memo
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
