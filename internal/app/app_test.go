package app

import (
	"testing"

	"repro/internal/asic"
	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// fakeMac records Send calls without a radio stack.
type fakeMac struct {
	payloads [][]byte
	reject   bool
}

func (f *fakeMac) Start()                {}
func (f *fakeMac) Joined() bool          { return true }
func (f *fakeMac) Slot() int             { return 0 }
func (f *fakeMac) CycleLength() sim.Time { return 30 * sim.Millisecond }
func (f *fakeMac) OnJoined(func())       {}
func (f *fakeMac) Stats() mac.Stats      { return mac.Stats{} }
func (f *fakeMac) Send(p []byte) bool {
	if f.reject {
		return false
	}
	f.payloads = append(f.payloads, append([]byte(nil), p...))
	return true
}

var _ mac.Mac = (*fakeMac)(nil)

type harness struct {
	k      *sim.Kernel
	env    Env
	mac    *fakeMac
	ledger *energy.Ledger
}

func newHarness(t *testing.T) *harness { return newHarnessOn(t, sim.NewKernel(1)) }

// newHarnessOn builds the harness over kernel k.
func newHarnessOn(t *testing.T, k *sim.Kernel) *harness {
	t.Helper()
	l := energy.NewLedger()
	prof := platform.IMEC()
	m := mcu.New(k, prof.MCU, l)
	sched := tinyos.NewSched(k, m, 0)
	fe := asic.New(k, prof.ASIC, l)
	fm := &fakeMac{}
	return &harness{
		k:      k,
		mac:    fm,
		ledger: l,
		env: Env{
			Sched:    sched,
			Frontend: fe,
			Mac:      fm,
			Cost:     prof.Cost,
			Tracer:   metrics.NewRecorder(0),
			NodeName: "node1",
		},
	}
}

func signal() *ecg.Generator {
	return ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, Seed: 1})
}

func newSignal(jitter float64) *ecg.Generator {
	return ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, JitterFrac: jitter, Seed: 2})
}

func TestStreamingPacksEighteenBytePayloads(t *testing.T) {
	h := newHarness(t)
	s := NewStreaming(h.env, StreamingConfig{SampleRateHz: 205, Channels: 2, Signal: signal()})
	s.Start()
	h.k.RunUntil(sim.Second)
	// 205 pairs/s -> 410 samples -> 34 full payloads of 12 samples.
	if got := len(h.mac.payloads); got != 34 {
		t.Fatalf("payloads in 1s = %d, want 34", got)
	}
	for _, p := range h.mac.payloads {
		if len(p) != 18 {
			t.Fatalf("payload length %d, want 18", len(p))
		}
	}
	if c := s.Counts(); c.Sent != 34 || c.Dropped != 0 {
		t.Fatalf("sent=%d dropped=%d", c.Sent, c.Dropped)
	}
}

func TestStreamingPayloadRoundTripsSamples(t *testing.T) {
	h := newHarness(t)
	sig := signal()
	s := NewStreaming(h.env, StreamingConfig{SampleRateHz: 200, Channels: 2, Signal: sig})
	s.Start()
	h.k.RunUntil(100 * sim.Millisecond)
	if len(h.mac.payloads) == 0 {
		t.Fatalf("no payloads")
	}
	samples, err := codec.Unpack(h.mac.payloads[0], 12)
	if err != nil {
		t.Fatal(err)
	}
	// First payload = acquisitions 0..5, interleaved ch0, ch1.
	for pair := 0; pair < 6; pair++ {
		for ch := 0; ch < 2; ch++ {
			want := sig.SampleAt(ch, int64(pair), 200)
			if samples[pair*2+ch] != want {
				t.Fatalf("sample (pair %d, ch %d) = %d, want %d", pair, ch, samples[pair*2+ch], want)
			}
		}
	}
}

func TestStreamingCountsDrops(t *testing.T) {
	h := newHarness(t)
	h.mac.reject = true
	s := NewStreaming(h.env, StreamingConfig{SampleRateHz: 205, Channels: 2, Signal: signal()})
	s.Start()
	h.k.RunUntil(sim.Second)
	if c := s.Counts(); c.Dropped == 0 || c.Sent != 0 {
		t.Fatalf("sent=%d dropped=%d with rejecting MAC", c.Sent, c.Dropped)
	}
}

func TestStreamingStartStopIdempotent(t *testing.T) {
	h := newHarness(t)
	s := NewStreaming(h.env, StreamingConfig{SampleRateHz: 205, Channels: 2, Signal: signal()})
	s.Start()
	s.Start() // no double-start panic
	h.k.RunUntil(100 * sim.Millisecond)
	s.Stop()
	s.Stop()
	n := len(h.mac.payloads)
	h.k.RunUntil(sim.Second)
	if len(h.mac.payloads) != n {
		t.Fatalf("payloads kept flowing after Stop")
	}
}

func TestStreamingResetCounters(t *testing.T) {
	h := newHarness(t)
	s := NewStreaming(h.env, StreamingConfig{SampleRateHz: 205, Channels: 2, Signal: signal()})
	s.Start()
	h.k.RunUntil(sim.Second)
	s.ResetCounters()
	if s.Counts() != (Counts{}) {
		t.Fatalf("counters not reset")
	}
}

func TestStreamingConfigValidation(t *testing.T) {
	h := newHarness(t)
	cases := []StreamingConfig{
		{Channels: 2, Signal: signal()},                                          // no rate
		{SampleRateHz: 200, Channels: 2},                                         // no signal
		{SampleRateHz: 200, Channels: 5, SamplesPerPacket: 12, Signal: signal()}, // 12 % 5 != 0
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewStreaming(h.env, cfg)
		}()
	}
}

func TestRpeakSendsBeatPackets(t *testing.T) {
	h := newHarness(t)
	r := NewRpeak(h.env, RpeakConfig{Channels: 2, Signal: signal()})
	r.Start()
	h.k.RunUntil(20 * sim.Second)
	// 2 channels x 75 bpm x 20 s = ~50 beats.
	c := r.Counts()
	if c.Beats < 44 || c.Beats > 54 {
		t.Fatalf("beats = %d, want ~50", c.Beats)
	}
	if c.Sent != uint64(len(h.mac.payloads)) {
		t.Fatalf("sent counter %d vs mac %d", c.Sent, len(h.mac.payloads))
	}
	// Every payload decodes as a beat with the paper's lag semantics.
	for _, p := range h.mac.payloads {
		// 5 bytes, kind-tagged, positive lag.
		if len(p) != 5 {
			t.Fatalf("beat payload %d bytes, want 5", len(p))
		}
	}
}

func TestRpeakBeatLagSemantics(t *testing.T) {
	h := newHarness(t)
	r := NewRpeak(h.env, RpeakConfig{Channels: 1, Signal: signal()})
	r.Start()
	h.k.RunUntil(5 * sim.Second)
	if len(h.mac.payloads) == 0 {
		t.Fatalf("no beats in 5s")
	}
	// "If it returns 74, the sample processed 74 calls ago was a beat":
	// lag x 5 ms must point a plausible distance into the past.
	for _, p := range h.mac.payloads {
		lag := int(p[2])<<8 | int(p[3])
		backMS := float64(lag) * 5
		if backMS <= 0 || backMS > 500 {
			t.Fatalf("beat lag %d (%.0f ms ago) implausible", lag, backMS)
		}
	}
}

func TestRpeakDefaultsTo200Hz(t *testing.T) {
	h := newHarness(t)
	r := NewRpeak(h.env, RpeakConfig{Channels: 2, Signal: signal()})
	r.Start()
	h.k.RunUntil(sim.Second)
	if got := h.env.Frontend.SamplesTaken(); got != 200 {
		t.Fatalf("acquisitions in 1s = %d, want 200 (default rate)", got)
	}
}

func TestRpeakValidation(t *testing.T) {
	h := newHarness(t)
	cases := []RpeakConfig{
		{SampleRateHz: -5, Channels: 2, Signal: signal()},
		{Channels: 2}, // no signal
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewRpeak(h.env, cfg)
		}()
	}
}

func TestEnvValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("incomplete env did not panic")
		}
	}()
	NewStreaming(Env{}, StreamingConfig{SampleRateHz: 200, Signal: signal()})
}

func TestRpeakMCUCostExceedsStreaming(t *testing.T) {
	// §5.2: local preprocessing raises MCU work. Verify the MCU spends
	// longer active for Rpeak at equal rates.
	run := func(build func(h *harness)) sim.Time {
		h := newHarness(t)
		build(h)
		h.k.RunUntil(10 * sim.Second)
		h.ledger.Flush(h.k.Now())
		return h.ledger.Meter(platform.ComponentMCU).TimeIn(platform.StateMCUActive)
	}
	stream := run(func(h *harness) {
		NewStreaming(h.env, StreamingConfig{SampleRateHz: 200, Channels: 2, Signal: signal()}).Start()
	})
	rp := run(func(h *harness) {
		NewRpeak(h.env, RpeakConfig{SampleRateHz: 200, Channels: 2, Signal: signal()}).Start()
	})
	if rp <= stream {
		t.Fatalf("rpeak active time %v not above streaming %v at equal rate", rp, stream)
	}
}

// TestDownshift checks the sample-rate rung on every application: a
// factor above 1 divides the acquisition rate in place, smaller factors
// are ignored, and a downshift while stopped carries into the next
// Start.
func TestDownshift(t *testing.T) {
	cases := []struct {
		name  string
		rate  int64 // acquisitions per second before any downshift
		build func(env Env) App
	}{
		{"streaming", 200, func(env Env) App {
			return NewStreaming(env, StreamingConfig{SampleRateHz: 200, Channels: 2, Signal: signal()})
		}},
		{"rpeak", 200, func(env Env) App { return NewRpeak(env, RpeakConfig{Channels: 2, Signal: signal()}) }},
		{"hrv", 200, func(env Env) App { return NewHRV(env, HRVConfig{Signal: signal()}) }},
		{"eeg", 128, func(env Env) App { return NewEEGPower(env, EEGPowerConfig{Channels: 8, Signal: eegSignal()}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			a := tc.build(h.env)
			fe := h.env.Frontend
			taken := fe.SamplesTaken()
			second := func(want int64) {
				t.Helper()
				end := h.k.Now() + sim.Second
				h.k.RunUntil(end)
				if got := fe.SamplesTaken() - taken; got != want {
					t.Fatalf("%d acquisitions in the second to %v, want %d", got, end, want)
				}
				taken = fe.SamplesTaken()
			}
			a.Start()
			second(tc.rate)
			a.Downshift(1)
			a.Downshift(0.5)
			second(tc.rate)
			a.Downshift(2)
			second(tc.rate / 2)
			a.Stop()
			a.Downshift(2)
			second(0)
			a.Start()
			second(tc.rate / 4)
		})
	}
}
