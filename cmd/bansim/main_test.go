package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceRingOverflowExitsZero: a run whose trace ring overflows is
// still a complete run. The metrics counters are exact because the
// recorder counts every event before the ring decides what to keep, so
// bansim warns that the trace is incomplete and exits 0.
func TestTraceRingOverflowExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bansim binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bansim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building bansim: %v\n%s", err, out)
	}
	scenario := filepath.Join(dir, "overflow.json")
	spec := `{"mac": "static", "nodes": 2, "cycle": "30ms", "app": "streaming", "sampleRateHz": 205, "duration": "2s", "traceLimit": 50, "metrics": true}`
	if err := os.WriteFile(scenario, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-config", scenario, "-format", "json",
		"-trace-out", filepath.Join(dir, "trace.json"))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("bansim exited %v\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "trace incomplete") {
		t.Fatalf("no trace-incomplete warning on stderr:\n%s", errb.String())
	}
	var res struct {
		Metrics struct {
			EventsDropped uint64 `json:"eventsDropped"`
		}
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("decoding the JSON report: %v", err)
	}
	if res.Metrics.EventsDropped == 0 {
		t.Fatal("the 50-event ring dropped nothing; the overflow path was not exercised")
	}
}

// TestBadFormatFailsBeforeRun: an unknown -format is rejected before the
// simulation starts, not after an hour-long run has finished.
func TestBadFormatFailsBeforeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bansim binary")
	}
	bin := filepath.Join(t.TempDir(), "bansim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building bansim: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-format", "yaml", "-duration", "1h", "-max-events", "1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err == nil {
		t.Fatal("bansim accepted -format yaml")
	}
	if !strings.Contains(errb.String(), `unknown format "yaml"`) || out.Len() > 0 {
		t.Fatalf("want only the format error, got stdout %q, stderr %q", out.String(), errb.String())
	}
}

// TestNegativeOverlayFlagsRejected: a negative -brownout or (over a
// scenario file) -reclaim reaches validation and fails the run with its
// core error, instead of silently running on the default.
func TestNegativeOverlayFlagsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bansim binary")
	}
	bin := filepath.Join(t.TempDir(), "bansim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building bansim: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-battery", "cr2032@0.0001", "-brownout", "-2"}, "core: BrownoutV -2"},
		{[]string{"-config", "../../scenarios/table1_row1.json", "-reclaim", "-5"},
			"core: negative SlotReclaimCycles -5"},
	} {
		cmd := exec.Command(bin, append(tc.args, "-duration", "1s")...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err == nil {
			t.Errorf("bansim %v exited 0", tc.args)
			continue
		}
		if !strings.Contains(errb.String(), tc.want) || out.Len() > 0 {
			t.Errorf("bansim %v: want only %q, got stdout %q, stderr %q",
				tc.args, tc.want, out.String(), errb.String())
		}
	}
}
