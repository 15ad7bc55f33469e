//go:build dispatchprobe

package experiments

import (
	"testing"

	"repro/internal/sim"
)

// TestDispatchProbeTables prints the dispatch probe's table (see
// internal/core's TestDispatchProbe) summed over the 18 published rows
// that the benchmark's paper-tables workload regenerates, at seed 1,
// simulated one after another so the probe's counters see one run at a
// time. Run it with
//
//	go test -tags dispatchprobe -run DispatchProbe -v ./internal/experiments
func TestDispatchProbeTables(t *testing.T) {
	sim.ProbeTake()
	if _, err := ReproduceAll(Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	t.Logf("\npaper-tables:\n%s", sim.ProbeTable())
}
