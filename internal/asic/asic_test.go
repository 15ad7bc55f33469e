package asic

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

func newFrontend() (*sim.Kernel, *Frontend, *energy.Ledger) {
	k := sim.NewKernel(1)
	l := energy.NewLedger()
	f := New(k, platform.IMEC().ASIC, l)
	return k, f, l
}

// counting is a Source whose sample i of channel ch reads i + 1000·ch.
type counting struct{}

func (counting) Sample(ch int, i int64) codec.Sample {
	return codec.Sample(uint16(i)+uint16(ch)*1000) & codec.MaxSample
}

func countingSource() Source { return counting{} }

func TestSamplingRateAndChannelOrder(t *testing.T) {
	k, f, _ := newFrontend()
	var got [][]codec.Sample
	f.Configure(countingSource(), []int{0, 1}, func(i int64, s []codec.Sample) {
		got = append(got, append([]codec.Sample(nil), s...))
	})
	f.Start(200)
	k.RunUntil(sim.Second)
	if len(got) != 200 {
		t.Fatalf("acquisitions in 1s at 200Hz = %d, want 200", len(got))
	}
	// Channel order preserved; counting source pattern intact.
	if got[5][0] != 5 || got[5][1] != 1005 {
		t.Fatalf("acquisition 5 = %v", got[5])
	}
	if f.SamplesTaken() != 200 {
		t.Fatalf("SamplesTaken = %d", f.SamplesTaken())
	}
}

func TestPaperSamplingRates(t *testing.T) {
	// The Table 1 rates must produce the right sample counts over 60s.
	for _, c := range []struct {
		fs   float64
		want int
	}{
		{205, 12300}, {105, 6300}, {70, 4200}, {55, 3300},
	} {
		k, f, _ := newFrontend()
		n := 0
		f.Configure(countingSource(), []int{0, 1}, func(int64, []codec.Sample) { n++ })
		f.Start(c.fs)
		k.RunUntil(60 * sim.Second)
		if math.Abs(float64(n-c.want)) > 1 {
			t.Fatalf("fs=%v: %d acquisitions in 60s, want ~%d", c.fs, n, c.want)
		}
	}
}

func TestConstantPowerWhileOn(t *testing.T) {
	k, f, l := newFrontend()
	f.Configure(countingSource(), []int{0}, func(int64, []codec.Sample) {})
	f.Start(100)
	k.RunUntil(60 * sim.Second)
	f.Stop()
	l.Flush(k.Now())
	// 10.5mW for 60s = 630 mJ — the constant draw §5 quotes.
	got := l.Meter(platform.ComponentASIC).EnergyJ() * 1e3
	if math.Abs(got-630) > 0.5 {
		t.Fatalf("ASIC energy = %.2f mJ, want 630", got)
	}
}

func TestOffDrawsNothing(t *testing.T) {
	k, _, l := newFrontend()
	k.RunUntil(10 * sim.Second)
	l.Flush(k.Now())
	if got := l.Meter(platform.ComponentASIC).EnergyJ(); got != 0 {
		t.Fatalf("idle ASIC consumed %v J", got)
	}
}

func TestStopHaltsSampling(t *testing.T) {
	k, f, _ := newFrontend()
	n := 0
	f.Configure(countingSource(), []int{0}, func(int64, []codec.Sample) { n++ })
	f.Start(100)
	k.RunUntil(sim.Second)
	f.Stop()
	if f.Running() {
		t.Fatalf("Running after Stop")
	}
	k.RunUntil(2 * sim.Second)
	if n != 100 {
		t.Fatalf("samples after stop: %d, want 100", n)
	}
	f.Stop() // idempotent
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func(f *Frontend)
	}{
		{"no channels", func(f *Frontend) {
			f.Configure(countingSource(), nil, func(int64, []codec.Sample) {})
		}},
		{"channel out of range", func(f *Frontend) {
			f.Configure(countingSource(), []int{99}, func(int64, []codec.Sample) {})
		}},
		{"start before configure", func(f *Frontend) { f.Start(100) }},
		{"bad rate", func(f *Frontend) {
			f.Configure(countingSource(), []int{0}, func(int64, []codec.Sample) {})
			f.Start(0)
		}},
		{"double start", func(f *Frontend) {
			f.Configure(countingSource(), []int{0}, func(int64, []codec.Sample) {})
			f.Start(100)
			f.Start(100)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, f, _ := newFrontend()
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn(f)
		})
	}
}
