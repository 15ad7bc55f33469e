package ecg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/codec"
)

func gen75() *Generator {
	return NewGenerator(Params{HeartRateBPM: 75, Seed: 1})
}

func TestPeriod(t *testing.T) {
	if got := gen75().Period(); got != 0.8 {
		t.Fatalf("75 bpm period = %v, want 0.8s", got)
	}
}

func TestInvalidHeartRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("zero heart rate did not panic")
		}
	}()
	NewGenerator(Params{})
}

func TestBeatTimesCountMatchesRate(t *testing.T) {
	g := gen75()
	beats := g.BeatTimes(0, 60)
	if len(beats) != 75 {
		t.Fatalf("beats in 60s = %d, want 75", len(beats))
	}
	for i := 1; i < len(beats); i++ {
		if beats[i] <= beats[i-1] {
			t.Fatalf("beat times not increasing at %d", i)
		}
	}
}

func TestBeatTimesWindow(t *testing.T) {
	g := gen75()
	beats := g.BeatTimes(10, 20)
	for _, b := range beats {
		if b < 10 || b >= 20 {
			t.Fatalf("beat %v outside [10,20)", b)
		}
	}
	if len(beats) < 11 || len(beats) > 14 {
		t.Fatalf("beats in 10s = %d, want ~12-13", len(beats))
	}
}

func TestRPeakDominatesSignal(t *testing.T) {
	g := gen75()
	beats := g.BeatTimes(0, 5)
	for _, b := range beats {
		atPeak := g.ValueAt(b)
		between := g.ValueAt(b + 0.4) // mid-diastole
		if atPeak < 3*math.Abs(between) {
			t.Fatalf("R peak %.3f not dominant vs baseline %.3f", atPeak, between)
		}
	}
}

func TestValueDeterministicAndOrderFree(t *testing.T) {
	g1 := NewGenerator(Params{HeartRateBPM: 75, JitterFrac: 0.05, NoiseAmp: 0.02, Seed: 9})
	g2 := NewGenerator(Params{HeartRateBPM: 75, JitterFrac: 0.05, NoiseAmp: 0.02, Seed: 9})
	// Evaluate in different orders; results must agree exactly.
	var a, b []codec.Sample
	for i := int64(0); i < 100; i++ {
		a = append(a, g1.SampleAt(0, i, 200))
	}
	for i := int64(99); i >= 0; i-- {
		b = append(b, g2.SampleAt(0, i, 200))
	}
	for i := 0; i < 100; i++ {
		if a[i] != b[99-i] {
			t.Fatalf("sample %d differs across evaluation orders", i)
		}
	}
}

// valueAtFull is ValueAt without the cut-off: all 15 Gaussians, in the
// same order and with the same expressions. It is the reference the
// pruned evaluation must reproduce.
func valueAtFull(g *Generator, t float64) float64 {
	k := int64(math.Floor(t / g.period))
	var v float64
	for dk := int64(-1); dk <= 1; dk++ {
		r := g.beatTime(k + dk)
		for _, w := range pqrst {
			d := t - (r + w.offset)
			v += float64(w.amp * math.Exp(-d*d/(2*w.sigma*w.sigma)))
		}
	}
	v += float64(g.p.BaselineAmp * math.Sin(2*math.Pi*0.3*t))
	return v * g.p.Amplitude
}

// TestPrunedSamplesMatchFullEvaluation checks that skipping far waves
// changes no quantised sample, on a grid of heart rates from 40 to 180
// bpm, the sampling rates the simulator, the soak corpus and the tables
// use, several seeds and both channels, and that every clean value stays
// within the bound ValueAt documents: 10⁻⁹ of one LSB.
func TestPrunedSamplesMatchFullEvaluation(t *testing.T) {
	const seconds = 40
	bound := 1e-9 * 2 / float64(codec.MaxSample)
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, bpm := range []float64{40, 60, 75, 90, 120, 180} {
			p := Params{HeartRateBPM: bpm, JitterFrac: 0.02, NoiseAmp: 0.02, BaselineAmp: 0.05, Seed: seed}
			for _, fs := range []float64{55, 100, 102.5, 105, 128, 200, 205, 250} {
				g := NewGenerator(p)
				for i := int64(0); i < int64(seconds*fs); i++ {
					at := float64(i) / fs
					full := valueAtFull(g, at)
					if diff := math.Abs(g.ValueAt(at) - full); diff > bound {
						t.Fatalf("seed %d, %g bpm, t=%v: pruned value is %g from the full sum, above %g", seed, bpm, at, diff, bound)
					}
					for ch := 0; ch < 2; ch++ {
						if got, want := g.SampleAt(ch, i, fs), g.sample(ch, i, full); got != want {
							t.Fatalf("seed %d, %g bpm, %g Hz, sample %d ch %d = %d, full evaluation says %d",
								seed, bpm, fs, i, ch, got, want)
						}
					}
				}
			}
		}
	}
}

func TestChannelsDecorrelatedNoise(t *testing.T) {
	g := NewGenerator(Params{HeartRateBPM: 75, NoiseAmp: 0.05, Seed: 3})
	same := 0
	for i := int64(0); i < 200; i++ {
		if g.SampleAt(0, i, 200) == g.SampleAt(1, i, 200) {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("channels identical in %d/200 samples; noise not decorrelated", same)
	}
}

func TestSamplesWithinADCRange(t *testing.T) {
	g := NewGenerator(Params{HeartRateBPM: 180, NoiseAmp: 0.1, BaselineAmp: 0.2, JitterFrac: 0.1, Seed: 4})
	for i := int64(0); i < 2000; i++ {
		s := g.SampleAt(0, i, 500)
		if s > codec.MaxSample {
			t.Fatalf("sample %d = %d exceeds 12-bit range", i, s)
		}
	}
}

// Property: jitter never reorders beats for sane jitter fractions.
func TestQuickJitteredBeatsMonotone(t *testing.T) {
	f := func(seed int64, bpmRaw uint8) bool {
		bpm := float64(bpmRaw%120) + 40 // 40..159 bpm
		g := NewGenerator(Params{HeartRateBPM: bpm, JitterFrac: 0.1, Seed: seed})
		beats := g.BeatTimes(0, 30)
		for i := 1; i < len(beats); i++ {
			if beats[i] <= beats[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEEGGeneratorDeterministic(t *testing.T) {
	a := NewEEGGenerator(EEGParams{Seed: 9})
	b := NewEEGGenerator(EEGParams{Seed: 9})
	for i := int64(0); i < 256; i++ {
		if a.SampleAt(3, i, 128) != b.SampleAt(3, i, 128) {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
	c := NewEEGGenerator(EEGParams{Seed: 10})
	same := 0
	for i := int64(0); i < 256; i++ {
		if a.SampleAt(3, i, 128) == c.SampleAt(3, i, 128) {
			same++
		}
	}
	if same > 200 {
		t.Fatalf("different seeds nearly identical (%d/256)", same)
	}
}

func TestEEGChannelsDecorrelated(t *testing.T) {
	g := NewEEGGenerator(EEGParams{Seed: 4})
	same := 0
	for i := int64(0); i < 256; i++ {
		if g.SampleAt(0, i, 128) == g.SampleAt(7, i, 128) {
			same++
		}
	}
	if same > 128 {
		t.Fatalf("channels correlated: %d/256 equal", same)
	}
}

func TestEEGAlphaRhythmPresent(t *testing.T) {
	// A goertzel-style correlation at 10 Hz must dominate one at 17 Hz
	// (between bands) for the default resting mixture.
	g := NewEEGGenerator(EEGParams{Seed: 2})
	power := func(freq float64) float64 {
		const fs = 128.0
		const n = 1024
		var re, im float64
		for i := 0; i < n; i++ {
			t := float64(i) / fs
			v := codec.Dequantize(g.SampleAt(0, int64(i), fs))
			re += v * math.Cos(2*math.Pi*freq*t)
			im += v * math.Sin(2*math.Pi*freq*t)
		}
		return re*re + im*im
	}
	if power(10) < 5*power(17) {
		t.Fatalf("alpha band not dominant: P(10Hz)=%.1f P(17Hz)=%.1f", power(10), power(17))
	}
}

func TestEEGWithinADCRange(t *testing.T) {
	g := NewEEGGenerator(EEGParams{AlphaAmp: 0.9, ThetaAmp: 0.5, BetaAmp: 0.4, NoiseAmp: 0.2, Seed: 8})
	for i := int64(0); i < 2000; i++ {
		if s := g.SampleAt(1, i, 256); s > codec.MaxSample {
			t.Fatalf("sample out of range at %d", i)
		}
	}
}

func runDetector(t *testing.T, p Params, fs float64, seconds float64) (detected []float64, lags []int) {
	t.Helper()
	g := NewGenerator(p)
	d := NewDetector(fs)
	n := int64(seconds * fs)
	for i := int64(0); i < n; i++ {
		lag := d.Push(g.SampleAt(0, i, fs))
		if lag > 0 {
			lags = append(lags, lag)
			detected = append(detected, float64(i-int64(lag))/fs)
		}
	}
	return detected, lags
}

func TestDetectorFindsAllBeatsCleanSignal(t *testing.T) {
	p := Params{HeartRateBPM: 75, Seed: 1}
	detected, lags := runDetector(t, p, 200, 60)
	truth := NewGenerator(p).BeatTimes(0, 60)
	// Allow edge effects of one beat at each end.
	if len(detected) < len(truth)-2 || len(detected) > len(truth) {
		t.Fatalf("detected %d beats, truth %d", len(detected), len(truth))
	}
	// Every detection aligns with a true beat within 60 ms.
	for _, dt := range detected {
		ok := false
		for _, tt := range truth {
			if math.Abs(dt-tt) < 0.06 {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("false positive at %.3fs", dt)
		}
	}
	for _, lag := range lags {
		if lag < 1 || lag > 100 {
			t.Fatalf("implausible lag %d", lag)
		}
	}
}

func TestDetectorPaperSemantics(t *testing.T) {
	// §5.2: the return value is how many samples ago the beat occurred;
	// at 200 Hz each sample is 5 ms. Verify the lag converts correctly.
	p := Params{HeartRateBPM: 75, Seed: 2}
	detected, lags := runDetector(t, p, 200, 10)
	if len(detected) == 0 {
		t.Fatalf("no beats detected")
	}
	for i := range detected {
		backInTime := float64(lags[i]) * 0.005
		if backInTime <= 0 || backInTime > 0.5 {
			t.Fatalf("lag %d (= %.0f ms) outside plausible confirmation delay", lags[i], backInTime*1e3)
		}
	}
}

func TestDetectorRobustToNoise(t *testing.T) {
	p := Params{HeartRateBPM: 75, NoiseAmp: 0.05, JitterFrac: 0.05, BaselineAmp: 0.1, Seed: 7}
	detected, _ := runDetector(t, p, 200, 60)
	if len(detected) < 70 || len(detected) > 80 {
		t.Fatalf("detected %d beats under noise, want ~75", len(detected))
	}
}

func TestDetectorRateSweep(t *testing.T) {
	for _, bpm := range []float64{50, 60, 75, 90, 120} {
		p := Params{HeartRateBPM: bpm, Seed: 5}
		detected, _ := runDetector(t, p, 200, 30)
		want := int(bpm / 2)
		if len(detected) < want-2 || len(detected) > want+1 {
			t.Fatalf("bpm=%v: detected %d in 30s, want ~%d", bpm, len(detected), want)
		}
	}
}

func TestDetectorRefractorySuppressesTWave(t *testing.T) {
	// A tall T wave must not double-count beats. 75 bpm for 60 s.
	p := Params{HeartRateBPM: 75, Seed: 11}
	detected, _ := runDetector(t, p, 200, 60)
	if len(detected) > 75 {
		t.Fatalf("double-counting: %d detections for 75 beats", len(detected))
	}
}

func TestDetectorInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("bad sampling rate did not panic")
		}
	}()
	NewDetector(0)
}

func TestDetectorBeatsCounter(t *testing.T) {
	p := Params{HeartRateBPM: 75, Seed: 1}
	g := NewGenerator(p)
	d := NewDetector(200)
	for i := int64(0); i < 200*20; i++ {
		d.Push(g.SampleAt(0, i, 200))
	}
	if d.Beats() < 20 || d.Beats() > 26 {
		t.Fatalf("Beats() = %d over 20s at 75bpm", d.Beats())
	}
}
