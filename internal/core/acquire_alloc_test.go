package core

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/sim"
)

// TestAcquisitionsAllocateNothing bounds the allocations each sample
// acquisition of the EEG and HRV applications costs: the difference of
// two runs' allocations, 10 s and 40 s long, over the acquisitions in
// between. Each app binds its ISR callback once and carries the samples
// through an mcu.Queue, so an acquisition allocates nothing.
func TestAcquisitionsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range []struct {
		app  AppKind
		rate float64
	}{{AppEEG, 128}, {AppHRV, 200}} {
		allocs := func(d sim.Time) float64 {
			cfg := Config{Variant: mac.Static, Nodes: 2, Cycle: 60 * sim.Millisecond,
				App: c.app, SampleRateHz: c.rate, Duration: d, Seed: 1}
			return testing.AllocsPerRun(1, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		acquisitions := 2 * c.rate * 30
		if per := (allocs(40*sim.Second) - allocs(10*sim.Second)) / acquisitions; per >= 0.1 {
			t.Errorf("%s: %.2f allocations per acquisition, want below 0.1", c.app, per)
		}
	}
}
