package ecg

import (
	"math"
	"math/rand"
	"testing"
)

func memoParams() Params {
	return Params{HeartRateBPM: 75, JitterFrac: 0.02, NoiseAmp: 0.02, BaselineAmp: 0.05, Seed: 9}
}

// sampleFresh evaluates a sample on a generator that has never memoised
// anything: the reference the memo must reproduce bit for bit.
func sampleFresh(ch int, i int64, fs float64) uint16 {
	return uint16(NewGenerator(memoParams()).SampleAt(ch, i, fs))
}

// TestMemoInterleavedIndicesMatchFresh replays the access pattern of
// several nodes sharing one generator — each walking the sample indices
// from its own offset, two channels per index — and checks every value
// against a fresh generator.
func TestMemoInterleavedIndicesMatchFresh(t *testing.T) {
	shared := NewGenerator(memoParams())
	offsets := []int64{0, 3, 17, 40, 41}
	for step := int64(0); step < 3000; step++ {
		for _, off := range offsets {
			i := step - off
			if i < 0 {
				continue
			}
			for ch := 0; ch < 2; ch++ {
				if got, want := uint16(shared.SampleAt(ch, i, 205)), sampleFresh(ch, i, 205); got != want {
					t.Fatalf("sample %d ch %d = %d, fresh generator says %d", i, ch, got, want)
				}
			}
		}
	}
}

// TestMemoTwoRatesShareGenerator covers the downshift case: one node
// samples at half the rate of the others, so equal indices name
// different instants.
func TestMemoTwoRatesShareGenerator(t *testing.T) {
	shared := NewGenerator(memoParams())
	for i := int64(0); i < 4000; i++ {
		for _, fs := range []float64{205, 102.5} {
			for ch := 0; ch < 2; ch++ {
				if got, want := uint16(shared.SampleAt(ch, i, fs)), sampleFresh(ch, i, fs); got != want {
					t.Fatalf("sample %d at %g Hz ch %d = %d, fresh generator says %d", i, fs, ch, got, want)
				}
			}
		}
	}
}

// TestMemoCollidingIndices alternates between indices that map to the
// same table entry, so every lookup evicts the previous one.
func TestMemoCollidingIndices(t *testing.T) {
	shared := NewGenerator(memoParams())
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 2000; n++ {
		i := rng.Int63n(100000)
		for _, j := range []int64{i, i + memoSize, i, i + 2*memoSize} {
			if got, want := uint16(shared.SampleAt(1, j, 200)), sampleFresh(1, j, 200); got != want {
				t.Fatalf("sample %d = %d, fresh generator says %d", j, got, want)
			}
		}
	}
}

// TestMemoHitsSharedInstants checks the memo does its job: once an
// instant is in the table, asking for it again reads the table instead
// of re-evaluating the sum of Gaussians.
func TestMemoHitsSharedInstants(t *testing.T) {
	g := NewGenerator(memoParams())
	g.SampleAt(0, 7, 205)
	g.memo[7].v = 0.5 // plant a marker the signal never yields there
	if got := g.clean(7, 7.0/205); math.Float64bits(got) != math.Float64bits(0.5) {
		t.Fatalf("memoised instant recomputed: got %v, want the cached 0.5", got)
	}
}
