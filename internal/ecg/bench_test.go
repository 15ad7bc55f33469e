package ecg

import (
	"testing"

	"repro/internal/codec"
)

// BenchmarkSampleAt measures ECG synthesis, the per-acquisition cost of
// every simulated sampling tick.
func BenchmarkSampleAt(b *testing.B) {
	b.ReportAllocs()
	g := NewGenerator(Params{HeartRateBPM: 75, JitterFrac: 0.02, NoiseAmp: 0.02, Seed: 1})
	for i := 0; i < b.N; i++ {
		g.SampleAt(0, int64(i), 200)
	}
}

// BenchmarkSampleAtShared replays the access pattern of core.Run: five
// nodes sharing one generator, each sampling both channels from its own
// start offset, so four of every five lookups hit the memo. One op is one
// sample.
func BenchmarkSampleAtShared(b *testing.B) {
	b.ReportAllocs()
	g := NewGenerator(Params{HeartRateBPM: 75, JitterFrac: 0.02, NoiseAmp: 0.02, BaselineAmp: 0.05, Seed: 1})
	offsets := [...]int64{0, 3, 17, 40, 41}
	n := 0
	for step := int64(0); n < b.N; step++ {
		for _, off := range offsets {
			for ch := 0; ch < 2; ch++ {
				g.SampleAt(ch, step+off, 205)
				n++
			}
		}
	}
}

// BenchmarkDetectorPush measures the streaming R-peak detector.
func BenchmarkDetectorPush(b *testing.B) {
	b.ReportAllocs()
	g := NewGenerator(Params{HeartRateBPM: 75, Seed: 1})
	d := NewDetector(200)
	// Pre-generate samples so the bench measures detection, not
	// synthesis.
	const n = 512
	samples := make([]codec.Sample, 0, n)
	for i := int64(0); i < n; i++ {
		samples = append(samples, g.SampleAt(0, i, 200))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Push(samples[i%n])
	}
}
