package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/sim"
)

// TestSchedulerDifferentialScenarios runs every committed scenario on
// both kernel schedulers — the pooled timer wheel and the retained heap
// reference — and requires bit-identical results: node energies, MAC
// statistics, channel stats, trace events, metrics snapshots, fault
// outcomes and brownout instants. This is the PR's safety net for the
// wheel: any divergence in dispatch order, however subtle, shows up as
// a diff here because every model layer consumes the kernel's order and
// its single rng stream.
func TestSchedulerDifferentialScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite skipped in -short mode")
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := ConfigFromJSON(data)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Metrics = true                // widen the compared surface
			cfg.TraceLimit = DefaultTraceRing // compare the timelines event by event
			// Every committed scenario must also audit clean on both
			// schedulers; a violation shows up as an Audit diff or a
			// non-empty summary in the DeepEqual below.
			if cfg.Audit == nil {
				cfg.Audit = &audit.Config{Every: 100 * sim.Millisecond}
			}

			run := func(sched string) Results {
				c := cfg
				c.Scheduler = sched
				res, err := Run(c)
				if err != nil {
					t.Fatalf("%s: %v", sched, err)
				}
				// The scheduler choice is the one intended difference;
				// blank it so DeepEqual compares everything else.
				res.Config.Scheduler = ""
				return res
			}
			wheel := run(SchedulerWheel)
			heap := run(SchedulerHeap)

			if wheel.Audit.Failed() || heap.Audit.Failed() {
				t.Fatalf("invariants violated:\nwheel: %v\nheap:  %v",
					wheel.Audit.Violations, heap.Audit.Violations)
			}

			// Compare the recorders first with a targeted diff (the
			// pointers themselves always differ).
			we, he := wheel.Trace.Events(), heap.Trace.Events()
			if len(we) != len(he) {
				t.Fatalf("trace length: wheel %d, heap %d", len(we), len(he))
			}
			for i := range we {
				if we[i] != he[i] {
					t.Fatalf("trace diverges at event %d:\n  wheel: %+v\n  heap:  %+v",
						i, we[i], he[i])
				}
			}
			wheel.Trace, heap.Trace = nil, nil

			if !reflect.DeepEqual(wheel.Metrics, heap.Metrics) {
				t.Fatal("metrics snapshots differ between schedulers")
			}
			wheel.Metrics, heap.Metrics = nil, nil

			if wheel.TimeToFirstDeath != heap.TimeToFirstDeath {
				t.Fatalf("brownout instants differ: wheel %v, heap %v",
					wheel.TimeToFirstDeath, heap.TimeToFirstDeath)
			}
			if !reflect.DeepEqual(wheel, heap) {
				t.Fatalf("results differ between schedulers:\nwheel: %+v\nheap:  %+v", wheel, heap)
			}
		})
	}
}
