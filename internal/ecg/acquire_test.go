package ecg

import (
	"math"
	"testing"

	"repro/internal/codec"
)

// valueAtUncached is ValueAt as it reads without the beat window: the
// three beat times and fifteen wave centres computed afresh on every
// call, with the same expressions summed in the same order.
func valueAtUncached(g *Generator, t float64) float64 {
	k := int64(math.Floor(t / g.period))
	var v float64
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

// TestBeatWindowMatchesUncached checks ValueAt's beat window bit for bit
// against the uncached evaluation, over heart rates from 40 to 200 bpm
// with and without jitter, seeds 1-4 and the sampling rates the model
// uses, in three orders: forward, stepping back by one and a half beats
// after every instant (a trailing reader, whose instants lie in earlier
// beats), and alternating between two rates (a downshifted node beside
// full-rate ones).
func TestBeatWindowMatchesUncached(t *testing.T) {
	const seconds = 6
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, bpm := range []float64{40, 75, 120, 200} {
			for _, jitter := range []float64{0, 0.02} {
				p := Params{HeartRateBPM: bpm, JitterFrac: jitter, BaselineAmp: 0.05, Seed: seed}
				for _, fs := range []float64{55, 102.5, 128, 200, 205, 250} {
					g, ref := NewGenerator(p), NewGenerator(p)
					back := int64(1.5 * g.period * fs)
					check := func(i int64, fs float64) {
						at := float64(i) / fs
						if got, want := g.ValueAt(at), valueAtUncached(ref, at); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("seed %d, %g bpm, jitter %g, %g Hz, t=%v: windowed %v, uncached %v", seed, bpm, jitter, fs, at, got, want)
						}
					}
					for i := int64(0); i < seconds*int64(fs); i++ {
						check(i, fs)
					}
					for i := int64(0); i < seconds*int64(fs); i++ {
						check(i, fs)
						check(i-back, fs)
					}
					for i := int64(0); i < seconds*int64(fs); i++ {
						check(i, fs)
						check(i, fs/2)
					}
				}
			}
		}
	}
}

// TestAcquireMatchesSampleAt checks that one acquisition equals
// SampleAt channel by channel: the two memoised channels, higher ones,
// which share one clean value, the EEG generator's 24 channels, and an
// index outside the int32 range, which the memo does not hold.
func TestAcquireMatchesSampleAt(t *testing.T) {
	ecgGen := func() source { return NewGenerator(memoParams()) }
	eegGen := func() source { return NewEEGGenerator(EEGParams{Seed: 5}) }
	var all [24]int
	for j := range all {
		all[j] = j
	}
	for _, c := range []struct {
		name     string
		gen      func() source
		channels []int
		first    int64
	}{
		{"ecg 2", ecgGen, all[:2], 0},
		{"ecg 5", ecgGen, all[:5], 0},
		{"ecg 3 and 1", ecgGen, []int{3, 1}, 0},
		{"ecg beyond int32", ecgGen, all[:4], math.MaxInt32 - 50},
		{"eeg 24", eegGen, all[:], 0},
	} {
		g, ref := c.gen(), c.gen()
		out := make([]codec.Sample, len(c.channels))
		for i := c.first; i < c.first+600; i++ {
			for _, fs := range []float64{205, 102.5} {
				g.Acquire(c.channels, i, fs, out)
				for j, ch := range c.channels {
					if want := ref.SampleAt(ch, i, fs); out[j] != want {
						t.Fatalf("%s: sample %d at %g Hz ch %d = %d, SampleAt says %d", c.name, i, fs, ch, out[j], want)
					}
				}
			}
		}
	}
}

// source is what both generators offer a front end: a whole acquisition,
// or one sample.
type source interface {
	Acquire(channels []int, i int64, fs float64, out []codec.Sample)
	SampleAt(ch int, i int64, fs float64) codec.Sample
}

// TestAcquireFillsOneEntry checks that an acquisition of both memoised
// channels computes one clean value per instant, however many nodes ask.
func TestAcquireFillsOneEntry(t *testing.T) {
	g := NewGenerator(memoParams())
	out := make([]codec.Sample, 2)
	for i := int64(0); i < 1000; i++ {
		for node := 0; node < 5; node++ {
			g.Acquire([]int{0, 1}, i, 205, out)
		}
	}
	if g.evals != 1000 {
		t.Fatalf("%d clean values computed for 1000 instants", g.evals)
	}
}
