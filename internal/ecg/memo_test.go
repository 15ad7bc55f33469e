package ecg

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/codec"
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

// TestMemoHitsSharedInstants checks the memo does its job: once a
// channel's sample of an instant is in the table, asking for it again
// reads the table instead of re-evaluating the signal, the noise and the
// quantiser.
func TestMemoHitsSharedInstants(t *testing.T) {
	g := NewGenerator(memoParams())
	for ch := 0; ch < memoChannels; ch++ {
		g.SampleAt(ch, 7, 205)
		e := &g.memo[7]
		e.s[ch] = codec.MaxSample + 1 // plant a marker the quantiser never yields
		if got := g.SampleAt(ch, 7, 205); got != codec.MaxSample+1 {
			t.Fatalf("memoised sample of ch %d recomputed: got %d, want the cached marker", ch, got)
		}
	}
}

// TestMemoKeysOnIndex covers two sample indices that name the same
// instant at different rates and share a table entry: i=memoSize at
// 100 Hz and i=2·memoSize at 200 Hz are both t = 5.12 s in entry 0. The
// noise hashes i, so each must get its own samples.
func TestMemoKeysOnIndex(t *testing.T) {
	shared := NewGenerator(memoParams())
	pairs := []struct {
		i  int64
		fs float64
	}{{memoSize, 100}, {2 * memoSize, 200}, {memoSize, 100}}
	for _, p := range pairs {
		for ch := 0; ch < memoChannels; ch++ {
			if got, want := uint16(shared.SampleAt(ch, p.i, p.fs)), sampleFresh(ch, p.i, p.fs); got != want {
				t.Fatalf("sample %d at %g Hz ch %d = %d, fresh generator says %d", p.i, p.fs, ch, got, want)
			}
		}
	}
}

// TestMemoFootprint holds the memo to 16 KiB, the size at which the
// per-run allocation it adds stays within the benchmark's bytes/event
// bound.
func TestMemoFootprint(t *testing.T) {
	if got := memoSize * unsafe.Sizeof(memoEntry{}); got > 16<<10 {
		t.Fatalf("memo is %d bytes, want at most 16 KiB", got)
	}
}
