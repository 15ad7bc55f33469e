package app

import (
	"repro/internal/approx"
	"repro/internal/codec"
	"repro/internal/mcu"
	"repro/internal/packet"
)

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
	Signal Signal
}

// channelsPerPacket bounds one summary frame: kind + seq + chunk index +
// per-channel 2-byte amplitudes within the ShockBurst payload limit.
const channelsPerPacket = 8

// EEGPower is the EEG activity application.
type EEGPower struct {
	sampler
	cfg EEGPowerConfig

	accum   []int64 // sum of |x - mid| per channel, this window
	samples int
	// acquired holds each acquisition's samples until its ISR, bound
	// once as sampleDone, completes.
	acquired   mcu.Queue[codec.Sample]
	sampleDone func()
	perWin     int
	seq        uint8
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
	e := &EEGPower{cfg: cfg, accum: make([]int64, cfg.Channels),
		acquired: mcu.NewQueue[codec.Sample](env.Sched.MCU())}
	e.acquired.Placed()
	e.sampleDone = e.onSampleDone
	e.configure(env, cfg.Signal, cfg.SampleRateHz, cfg.Channels, e.onAcquisition)
	e.sizeWindow()
	return e
}

// Downshift implements App: the window keeps its wall-clock length
// (perWin shrinks with the rate), so summary packets still flow at the
// same period but each one integrates fewer samples.
func (e *EEGPower) Downshift(factor float64) {
	if e.downshift(factor) {
		e.sizeWindow()
	}
}

// sizeWindow sets the samples per window at the current rate.
func (e *EEGPower) sizeWindow() {
	e.perWin = max(int(e.rate*e.cfg.WindowSeconds), 1)
}

// onAcquisition accumulates per-channel activity; at window end the
// summary is chunked into frames.
func (e *EEGPower) onAcquisition(i int64, samples []codec.Sample) {
	// Per-acquisition cost: one accumulate per channel, cheaper than a
	// detector call.
	cycles := e.env.Cost.RpeakAcquirePair + int64(len(samples))*60
	for _, v := range samples {
		e.acquired.Push(v) // the front-end reuses its register
	}
	e.env.Sched.Interrupt("eeg-sample", cycles, e.sampleDone)
}

// onSampleDone accumulates one acquisition as its ISR completes and
// posts the summary at window end.
func (e *EEGPower) onSampleDone() {
	const mid = int64(codec.MaxSample) / 2
	for ch := range e.accum {
		d := int64(e.acquired.Pop()) - mid
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
	// Summarising and chunking is a deferred task.
	e.env.Sched.PostFn("eeg-summarise", int64(len(window))*180, func() {
		e.emit(window, n)
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
		e.send(payload)
	}
}
