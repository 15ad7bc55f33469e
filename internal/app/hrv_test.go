package app

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestHRVSummarisesWindows(t *testing.T) {
	h := newHarness(t)
	a := NewHRV(h.env, HRVConfig{Signal: signal()})
	a.Start()
	// 75 bpm: 16 RR intervals need 17 beats = ~13.6 s; run 60 s -> ~4
	// windows.
	h.k.RunUntil(60 * sim.Second)
	c := a.Counts()
	if c.Sent < 3 || c.Sent > 5 {
		t.Fatalf("windows = %d, want ~4", c.Sent)
	}
	if c.Beats < 70 {
		t.Fatalf("beats = %d, want ~75", c.Beats)
	}
	for _, p := range h.mac.payloads {
		rep, err := packet.UnmarshalHRV(p)
		if err != nil {
			t.Fatal(err)
		}
		// 75 bpm -> mean RR ~800 ms.
		if rep.MeanRRMs < 700 || rep.MeanRRMs > 900 {
			t.Fatalf("mean RR = %d ms, want ~800", rep.MeanRRMs)
		}
		if rep.MinRRMs > rep.MeanRRMs || rep.MaxRRMs < rep.MeanRRMs {
			t.Fatalf("window bounds inconsistent: %+v", rep)
		}
		if rep.Beats != 16 {
			t.Fatalf("window covers %d intervals, want 16", rep.Beats)
		}
	}
}

func TestHRVTracksJitter(t *testing.T) {
	// With per-beat jitter, RMSSD must be clearly nonzero; with a
	// metronomic heart it collapses toward the sampling quantum.
	run := func(jitter float64) uint16 {
		h := newHarness(t)
		g := newSignal(jitter)
		a := NewHRV(h.env, HRVConfig{Signal: g})
		a.Start()
		h.k.RunUntil(40 * sim.Second)
		if len(h.mac.payloads) == 0 {
			t.Fatalf("no HRV windows")
		}
		rep, err := packet.UnmarshalHRV(h.mac.payloads[0])
		if err != nil {
			t.Fatal(err)
		}
		return rep.RMSSDMs
	}
	steady := run(0)
	jittery := run(0.08)
	if jittery <= steady+10 {
		t.Fatalf("RMSSD insensitive to HRV: steady=%d jittery=%d", steady, jittery)
	}
}

func TestHRVValidation(t *testing.T) {
	h := newHarness(t)
	cases := []HRVConfig{
		{Signal: signal(), WindowBeats: 1},    // window too small
		{Signal: signal(), SampleRateHz: -10}, // bad rate
		{},                                    // no signal
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewHRV(h.env, cfg)
		}()
	}
}

func TestHRVResetCounters(t *testing.T) {
	h := newHarness(t)
	a := NewHRV(h.env, HRVConfig{Signal: signal()})
	a.Start()
	h.k.RunUntil(30 * sim.Second)
	a.ResetCounters()
	if a.Counts() != (Counts{}) {
		t.Fatalf("counters not reset")
	}
	a.Stop()
	a.Stop()
}
