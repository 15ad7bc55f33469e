package app

import (
	"repro/internal/approx"
	"repro/internal/codec"
	"repro/internal/packet"
)

// EEGSource supplies multi-channel EEG samples (implemented by
// ecg.EEGGenerator).
type EEGSource interface {
	SampleAt(ch int, i int64, fs float64) codec.Sample
}

// EEGPowerConfig parameterises the multi-channel EEG activity monitor.
// Raw 24-channel EEG streaming does not fit the platform's one-frame-
// per-cycle TDMA budget (24 ch x 100 Hz x 1.5 B = 3.6 kB/s against
// ~0.9 kB/s of slot capacity), which is exactly the §5.2 argument again:
// process on the node. This application computes per-channel mean
// absolute amplitude over a window and ships the summary as a burst of
// frames, one per group of channels, exercising multi-packet queueing.
type EEGPowerConfig struct {
	// Channels is the electrode count (the paper's ASIC: up to 24 EEG).
	Channels int
	// SampleRateHz is the per-channel acquisition rate; 0 selects 128.
	SampleRateHz float64
	// WindowSeconds is the summary period; 0 selects 1 s.
	WindowSeconds float64
	// Signal drives the electrodes.
	Signal EEGSource
}

// channelsPerPacket bounds one summary frame: kind + seq + chunk index +
// per-channel 2-byte amplitudes within the ShockBurst payload limit.
const channelsPerPacket = 8

// EEGPower is the EEG activity application.
type EEGPower struct {
	env Env
	cfg EEGPowerConfig

	accum   []int64 // sum of |x - mid| per channel, this window
	samples int
	perWin  int
	seq     uint8

	windows uint64
	sent    uint64
	dropped uint64
	running bool
}

// NewEEGPower builds the application and configures the front-end.
func NewEEGPower(env Env, cfg EEGPowerConfig) *EEGPower {
	env.validate()
	if cfg.Channels <= 0 {
		cfg.Channels = 24
	}
	if approx.Unset(cfg.SampleRateHz) {
		cfg.SampleRateHz = 128
	}
	if cfg.SampleRateHz <= 0 {
		panic("app: eeg sample rate must be positive")
	}
	if approx.Unset(cfg.WindowSeconds) {
		cfg.WindowSeconds = 1
	}
	if cfg.WindowSeconds <= 0 {
		panic("app: eeg window must be positive")
	}
	if cfg.Signal == nil {
		panic("app: eeg needs a signal source")
	}
	e := &EEGPower{
		env:    env,
		cfg:    cfg,
		accum:  make([]int64, cfg.Channels),
		perWin: int(cfg.SampleRateHz * cfg.WindowSeconds),
	}
	if e.perWin < 1 {
		e.perWin = 1
	}
	channels := make([]int, cfg.Channels)
	for i := range channels {
		channels[i] = i
	}
	src := eegSource{src: cfg.Signal, fs: cfg.SampleRateHz}
	env.Frontend.Configure(src, channels, e.onAcquisition)
	return e
}

// eegSource adapts an EEGSource to the ASIC's Source interface.
type eegSource struct {
	src EEGSource
	fs  float64
}

// Sample implements asic.Source.
func (s eegSource) Sample(ch int, i int64) codec.Sample { return s.src.SampleAt(ch, i, s.fs) }

// Name implements App.
func (e *EEGPower) Name() string { return "eeg-power" }

// Start implements App.
func (e *EEGPower) Start() {
	if e.running {
		return
	}
	e.running = true
	e.env.Frontend.Start(e.cfg.SampleRateHz)
}

// Stop implements App.
func (e *EEGPower) Stop() {
	if !e.running {
		return
	}
	e.running = false
	e.env.Frontend.Stop()
}

// Downshift implements Downshifter: the window keeps its wall-clock
// length (perWin shrinks with the rate), so summary packets still flow
// at the same period but each one integrates fewer samples.
func (e *EEGPower) Downshift(factor float64) {
	if factor <= 1 {
		return
	}
	e.cfg.SampleRateHz /= factor
	e.perWin = int(e.cfg.SampleRateHz * e.cfg.WindowSeconds)
	if e.perWin < 1 {
		e.perWin = 1
	}
	channels := make([]int, e.cfg.Channels)
	for i := range channels {
		channels[i] = i
	}
	e.env.Frontend.Configure(eegSource{src: e.cfg.Signal, fs: e.cfg.SampleRateHz}, channels, e.onAcquisition)
	e.env.Frontend.Retune(e.cfg.SampleRateHz)
}

// WindowsSummarised reports completed windows.
func (e *EEGPower) WindowsSummarised() uint64 { return e.windows }

// PacketsSent reports summary frames handed to the MAC.
func (e *EEGPower) PacketsSent() uint64 { return e.sent }

// PacketsDropped reports frames the MAC queue refused.
func (e *EEGPower) PacketsDropped() uint64 { return e.dropped }

// ResetCounters zeroes the application statistics (post-warmup).
func (e *EEGPower) ResetCounters() {
	e.windows = 0
	e.sent = 0
	e.dropped = 0
}

// onAcquisition accumulates per-channel activity; at window end the
// summary is chunked into frames.
func (e *EEGPower) onAcquisition(i int64, samples []codec.Sample) {
	// Per-acquisition cost: one accumulate per channel, cheaper than a
	// detector call.
	cycles := e.env.Cost.RpeakAcquirePair + int64(len(samples))*60
	samples = append([]codec.Sample(nil), samples...) // the front-end reuses its register
	e.env.Sched.Interrupt("eeg-sample", cycles, func() {
		const mid = int64(codec.MaxSample) / 2
		for ch, s := range samples {
			d := int64(s) - mid
			if d < 0 {
				d = -d
			}
			e.accum[ch] += d
		}
		e.samples++
		if e.samples < e.perWin {
			return
		}
		window := make([]int64, len(e.accum))
		copy(window, e.accum)
		n := int64(e.samples)
		for ch := range e.accum {
			e.accum[ch] = 0
		}
		e.samples = 0
		e.windows++
		// Summarising and chunking is a deferred task.
		e.env.Sched.PostFn("eeg-summarise", int64(len(window))*180, func() {
			e.emit(window, n)
		})
	})
}

// emit chunks the per-channel means into frames of channelsPerPacket.
func (e *EEGPower) emit(sums []int64, n int64) {
	if !e.running {
		return // stopped while the summary task was queued
	}
	e.seq++
	for chunk := 0; chunk*channelsPerPacket < len(sums); chunk++ {
		lo := chunk * channelsPerPacket
		hi := lo + channelsPerPacket
		if hi > len(sums) {
			hi = len(sums)
		}
		payload := make([]byte, 0, 3+2*(hi-lo))
		payload = append(payload, byte(packet.KindEEG), e.seq, byte(chunk))
		for _, s := range sums[lo:hi] {
			mean := s / n
			if mean > 0xFFFF {
				mean = 0xFFFF
			}
			payload = append(payload, byte(mean>>8), byte(mean))
		}
		if e.env.Mac.Send(payload) {
			e.sent++
		} else {
			e.dropped++
		}
	}
}
