package app

import (
	"testing"

	"repro/internal/ecg"
	"repro/internal/packet"
	"repro/internal/sim"
)

func eegSignal() *ecg.EEGGenerator {
	return ecg.NewEEGGenerator(ecg.EEGParams{Seed: 5})
}

func TestEEGPowerChunksWindows(t *testing.T) {
	h := newHarness(t)
	e := NewEEGPower(h.env, EEGPowerConfig{Channels: 24, Signal: eegSignal()})
	e.Start()
	h.k.RunUntil(5 * sim.Second)
	// One window per second, 24 channels in chunks of 8 -> 3 frames each.
	if got := e.Counts().Sent; got%3 != 0 || got/3 < 4 || got/3 > 5 {
		t.Fatalf("frames = %d, want 3 per window over ~5 windows", got)
	}
	// Frame layout: kind, seq, chunk, then 8 x 2-byte amplitudes.
	seen := map[byte]map[byte]bool{}
	for _, p := range h.mac.payloads {
		if packet.Kind(p[0]) != packet.KindEEG {
			t.Fatalf("wrong kind 0x%02x", p[0])
		}
		if len(p) != 3+2*8 {
			t.Fatalf("frame length %d", len(p))
		}
		if seen[p[1]] == nil {
			seen[p[1]] = map[byte]bool{}
		}
		if seen[p[1]][p[2]] {
			t.Fatalf("duplicate chunk %d in window %d", p[2], p[1])
		}
		seen[p[1]][p[2]] = true
		if p[2] > 2 {
			t.Fatalf("chunk index %d out of range", p[2])
		}
	}
	for seq, chunks := range seen {
		if len(chunks) != 3 {
			t.Fatalf("window %d has %d chunks, want 3", seq, len(chunks))
		}
	}
}

func TestEEGPowerAmplitudesTrackSignal(t *testing.T) {
	// A hotter signal mixture must report larger mean amplitudes.
	run := func(alpha float64) int {
		h := newHarness(t)
		sig := ecg.NewEEGGenerator(ecg.EEGParams{AlphaAmp: alpha, ThetaAmp: 0.01, BetaAmp: 0.01, Seed: 5})
		e := NewEEGPower(h.env, EEGPowerConfig{Channels: 8, Signal: sig})
		e.Start()
		h.k.RunUntil(1500 * sim.Millisecond)
		if len(h.mac.payloads) == 0 {
			t.Fatalf("no frames")
		}
		p := h.mac.payloads[0]
		total := 0
		for i := 3; i+1 < len(p); i += 2 {
			total += int(p[i])<<8 | int(p[i+1])
		}
		return total
	}
	quiet := run(0.1)
	loud := run(0.9)
	if loud <= quiet {
		t.Fatalf("amplitude summary insensitive: quiet=%d loud=%d", quiet, loud)
	}
}

func TestEEGPowerValidation(t *testing.T) {
	h := newHarness(t)
	cases := []EEGPowerConfig{
		{Channels: 8}, // no signal
		{Channels: 8, SampleRateHz: -1, Signal: eegSignal()},    // bad rate
		{Channels: 8, WindowSeconds: -2, Signal: eegSignal()},   // bad window
		{Channels: 100, SampleRateHz: 128, Signal: eegSignal()}, // exceeds ASIC channels
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewEEGPower(h.env, cfg)
		}()
	}
}

func TestEEGPowerResetAndStop(t *testing.T) {
	h := newHarness(t)
	e := NewEEGPower(h.env, EEGPowerConfig{Channels: 8, Signal: eegSignal()})
	e.Start()
	e.Start()
	h.k.RunUntil(2 * sim.Second)
	e.ResetCounters()
	if e.Counts() != (Counts{}) {
		t.Fatalf("counters not reset")
	}
	e.Stop()
	e.Stop()
	n := len(h.mac.payloads)
	h.k.RunUntil(4 * sim.Second)
	if len(h.mac.payloads) != n {
		t.Fatalf("frames kept flowing after Stop")
	}
}
