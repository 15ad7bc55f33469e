package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/soak"
)

var referenceSeeds = flag.Int("reference-seeds", 64,
	"generated scenarios 1..N TestHandOffsMatchReference runs both ways")

// TestHandOffsMatchReference runs generated soak scenarios twice, once
// eliding hand-off completions and once with every MCU completing each
// hand-off through its event (core.SetReferenceHandOffs), and requires
// the same results, trace and counters: everything but the kernel's
// dispatch count.
func TestHandOffsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= int64(*referenceSeeds); seed++ {
		elided, elidedEvents := referenceDigest(t, seed, false)
		ref, refEvents := referenceDigest(t, seed, true)
		if elided != ref {
			t.Errorf("seed %d: elided run differs from the reference (events %d, reference %d)", seed, elidedEvents, refEvents)
		}
		if elidedEvents > refEvents {
			t.Errorf("seed %d: elided run dispatched %d events, the reference %d", seed, elidedEvents, refEvents)
		}
	}
}

// referenceDigest runs seed's scenario and hashes what it produced,
// apart from the kernel's dispatch count, which it reports.
func referenceDigest(t *testing.T, seed int64, reference bool) (string, uint64) {
	t.Helper()
	core.SetReferenceHandOffs(reference)
	defer core.SetReferenceHandOffs(false)
	cfg := soak.Generate(seed)
	cfg.TraceLimit = core.DefaultTraceRing
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	events := res.KernelEvents
	res.KernelEvents = 0
	if res.Metrics != nil {
		snap := *res.Metrics
		snap.KernelEvents = 0
		res.Metrics = &snap
	}
	h := sha256.New()
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	for _, e := range res.Trace.Events() {
		fmt.Fprintf(h, "%d|%s|%s|%s\n", e.At, e.Node, e.Kind, e.Detail)
	}
	rows, err := json.Marshal([]any{res.Trace.Recorded(), res.Trace.Dropped(), res.Trace.CounterRows(), res.Trace.HistRows()})
	if err != nil {
		t.Fatal(err)
	}
	h.Write(rows)
	return fmt.Sprintf("%x", h.Sum(nil)), events
}
