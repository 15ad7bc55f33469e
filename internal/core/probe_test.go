//go:build dispatchprobe

package core

import (
	"testing"

	"repro/internal/sim"
)

// TestDispatchProbe prints, for the benchmark's four core.Run
// configurations at seed 1, how many kernel events each handler
// dispatched, how many MCU completions each callback ran, and how many
// times a hand-off fell back to an event. Run it with
//
//	go test -tags dispatchprobe -run DispatchProbe -v ./internal/core
//
// Counting costs a map lookup per event, so it lives behind the build
// tag; the counts are exact, and the events total matches an unprobed
// run's.
func TestDispatchProbe(t *testing.T) {
	sim.ProbeTake()
	for _, c := range budgetCases()[:4] {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s:\n%s", c.name, sim.ProbeTable())
		if res.KernelEvents != c.events {
			t.Errorf("%s: %d kernel events under the probe, want %d", c.name, res.KernelEvents, c.events)
		}
	}
}
