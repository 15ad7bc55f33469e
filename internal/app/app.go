// Package app implements the biomedical applications the paper evaluates
// (§5): 2-channel ECG streaming, and the on-node Rpeak heart-beat
// detector that trades a little microcontroller work for a large radio
// saving.
package app

import (
	"repro/internal/asic"
	"repro/internal/codec"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/tinyos"
)

// App is the node layer's view of an application.
type App interface {
	// Start begins acquisition; called once the MAC holds a slot.
	Start()
	// Stop halts acquisition.
	Stop()
	// Downshift divides the sampling rate by factor (> 1; smaller
	// factors are ignored) — the sample-rate rung of the battery
	// graceful-degradation ladder. It may be called while running or
	// stopped, and composes across calls (two factor-2 downshifts
	// quarter the rate).
	Downshift(factor float64)
	// Counts reports the statistics since the last ResetCounters.
	Counts() Counts
	// ResetCounters zeroes the statistics (post-warmup).
	ResetCounters()
}

// Counts are an application's statistics.
type Counts struct {
	Sent    uint64 // payloads handed to the MAC
	Dropped uint64 // payloads the MAC queue refused
	Beats   uint64 // beats detected (0 for applications without a detector)
}

// Signal drives the electrodes: the quantised reading of sample i of
// channel ch at fs Hz (ecg.Generator, ecg.EEGGenerator).
type Signal interface {
	SampleAt(ch int, i int64, fs float64) codec.Sample
}

// Env bundles the node facilities an application runs on.
type Env struct {
	Sched    *tinyos.Sched
	Frontend *asic.Frontend
	Mac      mac.Mac
	Cost     platform.CostModel
	Tracer   *metrics.Recorder
	NodeName string
}

// validate panics on an incomplete environment.
func (e Env) validate() {
	if e.Sched == nil || e.Frontend == nil || e.Mac == nil {
		panic("app: incomplete environment")
	}
}

// sampler is the acquisition core every application embeds: it owns the
// front-end's source and rate, the running flag and the statistics.
type sampler struct {
	env     Env
	signal  Signal
	rate    float64 // current sampling rate, Hz
	running bool
	counts  Counts
}

// configure binds the front-end to channels 0..channels-1 of sig at
// rate Hz, handing each acquisition to h.
func (s *sampler) configure(env Env, sig Signal, rate float64, channels int, h asic.SampleHandler) {
	s.env, s.signal, s.rate = env, sig, rate
	list := make([]int, channels)
	for i := range list {
		list[i] = i
	}
	env.Frontend.Configure(s, list, h)
}

// Sample implements asic.Source at the current rate.
//
//hot:path
func (s *sampler) Sample(ch int, i int64) codec.Sample {
	return s.signal.SampleAt(ch, i, s.rate)
}

// Start implements App.
func (s *sampler) Start() {
	if s.running {
		return
	}
	s.running = true
	s.env.Frontend.Start(s.rate)
}

// Stop implements App.
func (s *sampler) Stop() {
	if !s.running {
		return
	}
	s.running = false
	s.env.Frontend.Stop()
}

// Counts implements App.
func (s *sampler) Counts() Counts { return s.counts }

// ResetCounters implements App.
func (s *sampler) ResetCounters() { s.counts = Counts{} }

// send hands payload to the MAC and counts the outcome.
//
//hot:path
func (s *sampler) send(payload []byte) {
	if s.env.Mac.Send(payload) {
		s.counts.Sent++
	} else {
		s.counts.Dropped++
	}
}

// downshift divides the rate by factor and retunes a running front-end
// in place. It reports false, changing nothing, for factor <= 1.
func (s *sampler) downshift(factor float64) bool {
	if factor <= 1 {
		return false
	}
	s.rate /= factor
	s.env.Frontend.Retune(s.rate)
	return true
}
