package ecg

import (
	"math"

	"repro/internal/approx"
	"repro/internal/codec"
)

// EEGParams configures a synthetic multi-channel electroencephalogram
// source. The platform's ASIC acquires up to 24 EEG channels alongside
// the ECG (§3 of the paper); this generator produces a plausible
// rhythm-band mixture per channel — alpha dominant with eyes closed,
// plus theta/beta components and noise — deterministic in the same
// order-free way as the ECG generator.
type EEGParams struct {
	// AlphaAmp, ThetaAmp, BetaAmp are the band amplitudes relative to
	// full scale. Zero values select a resting-state default mixture.
	AlphaAmp, ThetaAmp, BetaAmp float64
	// NoiseAmp is the broadband noise amplitude.
	NoiseAmp float64
	// Amplitude scales the whole signal into the ADC input range; 0
	// selects 0.5.
	Amplitude float64
	// Seed drives the per-channel phases and noise.
	Seed int64
}

// EEGGenerator synthesises per-channel EEG. Channels share band structure
// but have independent phases and noise, like neighbouring electrodes.
type EEGGenerator struct {
	p EEGParams
}

// NewEEGGenerator applies defaults and builds a generator.
func NewEEGGenerator(p EEGParams) *EEGGenerator {
	if approx.Unset(p.AlphaAmp) && approx.Unset(p.ThetaAmp) && approx.Unset(p.BetaAmp) {
		p.AlphaAmp, p.ThetaAmp, p.BetaAmp = 0.5, 0.2, 0.12
	}
	if approx.Unset(p.NoiseAmp) {
		p.NoiseAmp = 0.08
	}
	if approx.Unset(p.Amplitude) {
		p.Amplitude = 0.5
	}
	return &EEGGenerator{p: p}
}

// band frequencies (Hz): centre of alpha, theta, beta rhythms.
const (
	alphaHz = 10.0
	thetaHz = 6.0
	betaHz  = 21.0
)

// phase derives a deterministic per-channel, per-band phase offset.
func (g *EEGGenerator) phase(ch int, band int) float64 {
	h := splitmix64(uint64(ch)*0x9E37 ^ uint64(band)<<16 ^ uint64(g.p.Seed))
	// Dividing by 2^52 is unit's exact halving-and-doubling; the
	// conversion keeps an inlined caller from fusing the product into its
	// add (see the package comment).
	return float64(float64(h>>11) / float64(1<<52) * math.Pi)
}

// ValueAt evaluates channel ch's clean signal at time t seconds.
func (g *EEGGenerator) ValueAt(ch int, t float64) float64 {
	v := float64(g.p.AlphaAmp*math.Sin(float64(2*math.Pi*alphaHz*t)+g.phase(ch, 0))) +
		float64(g.p.ThetaAmp*math.Sin(float64(2*math.Pi*thetaHz*t)+g.phase(ch, 1))) +
		float64(g.p.BetaAmp*math.Sin(float64(2*math.Pi*betaHz*t)+g.phase(ch, 2)))
	return v * g.p.Amplitude
}

// SampleAt produces the quantised ADC reading of sample i on channel ch
// at rate fs, with deterministic per-sample noise.
func (g *EEGGenerator) SampleAt(ch int, i int64, fs float64) codec.Sample {
	t := float64(i) / fs
	v := g.ValueAt(ch, t)
	if g.p.NoiseAmp > 0 {
		h := splitmix64(uint64(i)*0x85EBCA77 ^ uint64(ch)<<40 ^ uint64(g.p.Seed)<<8)
		v += float64(unit(h) * g.p.NoiseAmp * g.p.Amplitude)
	}
	return codec.Quantize(v)
}

// Acquire converts one acquisition: out[j] is SampleAt(channels[j], i,
// fs).
//
//hot:path
func (g *EEGGenerator) Acquire(channels []int, i int64, fs float64, out []codec.Sample) {
	for j, ch := range channels {
		out[j] = g.SampleAt(ch, i, fs)
	}
}
