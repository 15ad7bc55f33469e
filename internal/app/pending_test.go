package app

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
)

// TestStreamingCrashDropsAbandonedAcquisitions crashes the node while two
// acquisitions' ISRs are still queued on the MCU. The crash abandons
// them, so the first payload after the reboot must carry only the
// acquisitions made after it — not the abandoned ones still sitting in
// the application's pending FIFO.
func TestStreamingCrashDropsAbandonedAcquisitions(t *testing.T) {
	h := newHarness(t)
	s := NewStreaming(h.env, StreamingConfig{SampleRateHz: 205, Channels: 2, Signal: signal()})
	m := h.env.Sched.MCU()
	acquire := func(v codec.Sample) { s.onAcquisition(0, []codec.Sample{v, v + 1}) }
	h.k.Schedule(0, func(*sim.Kernel) {
		acquire(100)
		acquire(102)
		m.Crash()
		h.env.Sched.Crash()
		m.Reboot()
		for i := 0; i < 6; i++ {
			acquire(codec.Sample(200 + 2*i))
		}
	})
	h.k.Run()
	if len(h.mac.payloads) != 1 {
		t.Fatalf("%d payloads sent, want 1", len(h.mac.payloads))
	}
	got, err := codec.Unpack(h.mac.payloads[0], 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != codec.Sample(200+i) {
			t.Fatalf("sample %d = %d, want %d (payload %v)", i, v, 200+i, got)
		}
	}
}

// TestStreamingReusesFrontendRegister feeds acquisitions through one
// reused slice, as the ASIC does, and checks the payload still carries
// each acquisition's own values.
func TestStreamingReusesFrontendRegister(t *testing.T) {
	h := newHarness(t)
	s := NewStreaming(h.env, StreamingConfig{SampleRateHz: 205, Channels: 2, Signal: signal()})
	reg := make([]codec.Sample, 2)
	h.k.Schedule(0, func(*sim.Kernel) {
		for i := 0; i < 6; i++ {
			reg[0], reg[1] = codec.Sample(10*i), codec.Sample(10*i+1)
			s.onAcquisition(int64(i), reg)
		}
	})
	h.k.Run()
	if len(h.mac.payloads) != 1 {
		t.Fatalf("%d payloads sent, want 1", len(h.mac.payloads))
	}
	got, _ := codec.Unpack(h.mac.payloads[0], 12)
	for i := 0; i < 6; i++ {
		if got[2*i] != codec.Sample(10*i) || got[2*i+1] != codec.Sample(10*i+1) {
			t.Fatalf("pair %d = %d,%d, want %d,%d", i, got[2*i], got[2*i+1], 10*i, 10*i+1)
		}
	}
}

// TestRpeakCrashDropsAbandonedAcquisitions is the Rpeak counterpart: an
// acquisition whose ISR the crash abandoned must not linger ahead of the
// later ones, or every detector input from then on lags by one sample.
func TestRpeakCrashDropsAbandonedAcquisitions(t *testing.T) {
	h := newHarness(t)
	r := NewRpeak(h.env, RpeakConfig{Channels: 1, Signal: signal()})
	m := h.env.Sched.MCU()
	h.k.Schedule(0, func(*sim.Kernel) {
		r.onAcquisition(0, []codec.Sample{codec.MaxSample})
		m.Crash()
		h.env.Sched.Crash()
		m.Reboot()
		r.onAcquisition(1, []codec.Sample{1})
	})
	h.k.Run()
	if n := r.acquired.Len(); n != 0 {
		t.Fatalf("%d acquisition(s) still pending after every ISR completed", n)
	}
}
