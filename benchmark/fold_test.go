package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/ecg"
)

func TestLeafLayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Leaf-most repository frame wins, whatever runtime frames sit
		// above it.
		{[]string{"runtime.mallocgc", "repro/internal/mcu.(*MCU).execFor", "repro/internal/tinyos.(*Sched).Post"}, "mcu"},
		{[]string{"math.Exp", "repro/internal/ecg.(*Generator).ValueAt", "repro/internal/app.(*Streaming).onAcquisition.func1"}, "ecg"},
		{[]string{"repro/internal/mac.(*BS).handleData.func2", "repro/internal/sim.(*Kernel).RunUntil"}, "mac"},
		// A repository package outside the named layers, and a nested one.
		{[]string{"repro/internal/body.LinkModel", "repro/internal/core.Run"}, "other"},
		{[]string{"repro/internal/lint/analysis.NewProgram"}, "other"},
		// No repository frame at all.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"main.spin", "repro/internalx.F"}, "gc"},
		{nil, "gc"},
	}
	for _, c := range cases {
		if got := leafLayer(c.stack); got != c.want {
			t.Errorf("leafLayer(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var spinSink float64

// spin burns CPU in a function outside the repository's internal tree.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i) + spinSink)
		}
	}
}

// TestFoldCapturedProfile captures a real CPU profile of a busy loop in
// repro/internal/ecg and one in this package, parses it with the
// package's own reader, and checks the fold charges them to ecg and gc.
func TestFoldCapturedProfile(t *testing.T) {
	g := ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, Seed: 1})
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for i := int64(0); i < 1000; i++ {
			spinSink += float64(g.SampleAt(0, i, 200))
		}
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("profile has no samples")
	}
	sawSpin := false
	for _, s := range p.samples {
		for _, fn := range p.stack(s) {
			if fn == "repro/benchmark.spin" || fn == "main.spin" {
				sawSpin = true
			}
		}
	}
	if !sawSpin {
		t.Error("no sample names the spin function")
	}
	weight := map[string]float64{}
	addCPU(weight, p)
	got := shares(weight)
	var total float64
	for _, v := range got {
		total += v
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("shares sum to %v, want 100", total)
	}
	if got["ecg"] < 15 || got["gc"] < 15 {
		t.Errorf("ecg %.1f%%, gc %.1f%%: want each near half", got["ecg"], got["gc"])
	}
	if len(got) != len(layers) {
		t.Errorf("fold has %d layers, want %d", len(got), len(layers))
	}
}

// TestFoldAllocs charges a burst of small allocations made inside
// repro/internal/codec to the codec layer.
func TestFoldAllocs(t *testing.T) {
	samples := make([]codec.Sample, 12)
	runtime.GC()
	before := memProfile()
	for i := 0; i < 2000000; i++ {
		spinSink += float64(codec.Pack(samples)[0])
	}
	runtime.GC()
	weight := map[string]float64{}
	addAllocs(weight, before, memProfile())
	if got := shares(weight)["codec"]; got < 80 {
		t.Errorf("codec alloc share %.1f%%, want nearly all", got)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted non-gzip input")
	}
}
