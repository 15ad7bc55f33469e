package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestLifetimeWorkerInvariance locks the acceptance contract for the
// battery lifecycle: the shipped lifetime scenario's time-to-first-death
// (and every other result field) is bit-identical whatever the worker
// count, because brownouts are driven purely by the deterministic energy
// ledger, never by wall-clock or scheduling order.
func TestLifetimeWorkerInvariance(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "lifetime_cr2032.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.ConfigFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	// Surround the scenario with decoys so workers genuinely interleave.
	points := []Point{
		{Label: "decoy-a", Config: testConfig(DeriveSeed(9, 0))},
		{Label: "lifetime", Config: traced(cfg)},
		{Label: "decoy-b", Config: testConfig(DeriveSeed(9, 1))},
	}
	baseline := Run(points, Options{Workers: 1})
	if err := FirstErr(baseline); err != nil {
		t.Fatal(err)
	}
	ref := baseline[1].Res
	if len(ref.Trace.Events()) == 0 {
		t.Fatal("the event ring kept nothing; the trace comparison would be vacuous")
	}
	if ref.TimeToFirstDeath <= 0 {
		t.Fatalf("lifetime scenario produced no death: ttfd=%v", ref.TimeToFirstDeath)
	}
	for _, w := range []int{2, 4} {
		got := Run(points, Options{Workers: w})
		if err := FirstErr(got); err != nil {
			t.Fatal(err)
		}
		if got[1].Res.TimeToFirstDeath != ref.TimeToFirstDeath {
			t.Fatalf("workers=%d: ttfd %v != %v at workers=1",
				w, got[1].Res.TimeToFirstDeath, ref.TimeToFirstDeath)
		}
		if !reflect.DeepEqual(baseline, got) {
			t.Fatalf("workers=%d: full results differ from workers=1", w)
		}
	}
}
