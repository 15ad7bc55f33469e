package soak

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the timeline digest golden")

// pinnedSeeds is the generated-scenario range the committed digest
// golden pins: wide enough to draw every protocol with faults,
// degradation, drift and lossy channels many times over.
const pinnedSeeds = 256

var digestSeeds = flag.Int("digest-seeds", pinnedSeeds,
	"generated scenarios 1..N the timeline digest covers; any N but the pinned one reads and writes testdata/digest-N.golden")

// digestGolden is the golden file for the -digest-seeds range.
func digestGolden() string {
	if *digestSeeds == pinnedSeeds {
		return filepath.Join("testdata", "digest.golden")
	}
	return filepath.Join("testdata", fmt.Sprintf("digest-%d.golden", *digestSeeds))
}

// TestTimelineDigestGolden pins the simulator bit for bit: for each
// generated scenario it hashes the Results JSON, every retained trace
// event, the exact counters and the histograms, and compares the digest
// against testdata/digest.golden. Any change to which events happen,
// when, or in what order moves a digest; a deliberate change is
// refreshed with -update and explained.
//
// Each golden line reads "seed protocol digest events". The digest
// leaves out the kernel's dispatch count, which the events column pins
// on its own: a change that only schedules fewer kernel events to reach
// the same model behaviour moves the events column and no digest.
//
// -digest-seeds N widens (or narrows) the range to seeds 1..N, against
// testdata/digest-N.golden, which -update writes and git ignores: write
// it in a checkout of one commit and run the test in another, and the
// failure report counts the lines whose digest moved apart from those
// whose events column alone moved.
//
// The comparison runs on amd64 only: on other architectures the Go
// compiler may fuse multiply-adds, which legitimately moves
// floating-point results in the last bit.
func TestTimelineDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var got bytes.Buffer
	for seed := int64(1); seed <= int64(*digestSeeds); seed++ {
		cfg := Generate(seed)
		cfg.TraceLimit = core.DefaultTraceRing
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&got, "%d %s %x %d\n", seed, cfg.Protocol, runDigest(t, res), res.KernelEvents)
	}
	path := digestGolden()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	moved, eventsOnly := 0, 0
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		switch {
		case bytes.Equal(g, w):
		case bytes.Equal(withoutEvents(g), withoutEvents(w)):
			eventsOnly++
		default:
			if moved < 10 {
				t.Errorf("digest moved:\n got  %s\n want %s", g, w)
			}
			moved++
		}
	}
	t.Fatalf("%d digest(s) moved and %d line(s) differ in the events column alone, against %s",
		moved, eventsOnly, path)
}

// withoutEvents drops a golden line's last column, the events count.
func withoutEvents(line []byte) []byte {
	if i := bytes.LastIndexByte(line, ' '); i >= 0 {
		return line[:i]
	}
	return line
}

// runDigest hashes everything a run observably produced, apart from
// the kernel's dispatch count.
func runDigest(t *testing.T, res core.Results) [sha256.Size]byte {
	t.Helper()
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
	var n [8]byte
	for _, e := range res.Trace.Events() {
		binary.LittleEndian.PutUint64(n[:], uint64(e.At))
		h.Write(n[:])
		fmt.Fprintf(h, "|%s|%s|%s\n", e.Node, e.Kind, e.Detail)
	}
	fmt.Fprintf(h, "recorded=%d dropped=%d\n", res.Trace.Recorded(), res.Trace.Dropped())
	rows, err := json.Marshal([]any{res.Trace.CounterRows(), res.Trace.HistRows()})
	if err != nil {
		t.Fatal(err)
	}
	h.Write(rows)
	return [sha256.Size]byte(h.Sum(nil))
}
