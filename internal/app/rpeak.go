package app

import (
	"repro/internal/approx"
	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// RpeakConfig parameterises the on-node beat detection application of
// §5.2.
type RpeakConfig struct {
	// SampleRateHz is fixed by the Rpeak algorithm; the paper uses
	// 200 Hz (one sample per channel every 5 ms). 0 selects 200.
	SampleRateHz float64
	// Channels is the number of monitored channels (the paper: 2).
	Channels int
	// Signal drives the electrodes.
	Signal *ecg.Generator
}

// Rpeak is the local-preprocessing application: the detector runs on
// every sample of every channel; when it reports a beat, a small event
// packet — "a beat occurred Lag samples ago on this channel" — is sent
// instead of the raw signal, cutting the radio load by more than an
// order of magnitude at the cost of the detector's cycles.
type Rpeak struct {
	sampler
	cfg RpeakConfig

	detectors []*ecg.Detector
	// acquired holds each acquisition's samples until its ISR completes,
	// and found each detected beat until its assembly task runs.
	acquired     mcu.Queue[codec.Sample]
	found        mcu.Queue[packet.Beat]
	sampleDone   func()
	assembleDone func()
	payload      []byte // marshal scratch; Send copies it
	seq          uint8
	trace        metrics.NodeID // env.NodeName's ID in env.Tracer
}

// NewRpeak builds the application and configures the front-end.
func NewRpeak(env Env, cfg RpeakConfig) *Rpeak {
	env.validate()
	if approx.Unset(cfg.SampleRateHz) {
		cfg.SampleRateHz = 200
	}
	if cfg.SampleRateHz <= 0 {
		panic("app: rpeak sample rate must be positive")
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 2
	}
	if cfg.Signal == nil {
		panic("app: rpeak needs a signal source")
	}
	r := &Rpeak{cfg: cfg,
		acquired: mcu.NewQueue[codec.Sample](env.Sched.MCU()),
		found:    mcu.NewQueue[packet.Beat](env.Sched.MCU())}
	r.sampleDone = r.onSampleDone
	r.assembleDone = r.onAssembleDone
	r.configure(env, cfg.Signal, cfg.SampleRateHz, cfg.Channels, r.onAcquisition)
	r.detectors = make([]*ecg.Detector, cfg.Channels)
	r.buildDetectors()
	r.trace = env.Tracer.ID(env.NodeName)
	return r
}

// Downshift implements App: the detectors are rebuilt at the divided
// rate (their thresholds and refractory windows are calibrated in
// samples, so they must match the new sampling period).
func (r *Rpeak) Downshift(factor float64) {
	if r.downshift(factor) {
		r.buildDetectors()
	}
}

// buildDetectors gives every channel a fresh detector at the current
// rate.
func (r *Rpeak) buildDetectors() {
	for ch := range r.detectors {
		r.detectors[ch] = ecg.NewDetector(r.rate)
	}
}

// onAcquisition runs the detector over each channel's new sample.
//
//hot:path
func (r *Rpeak) onAcquisition(_ int64, samples []codec.Sample) {
	for _, v := range samples {
		r.acquired.Push(v)
	}
	// Acquisition plus one detector call per channel.
	cycles := r.env.Cost.RpeakAcquirePair +
		int64(len(samples))*r.env.Cost.RpeakPerChannelSample
	r.env.Sched.Interrupt("rpeak-sample", cycles, r.sampleDone)
}

// onSampleDone feeds one acquisition to the detectors when its ISR
// completes and posts a beat packet per detected beat.
//
//hot:path
func (r *Rpeak) onSampleDone() {
	for ch := range r.cfg.Channels {
		lag := r.detectors[ch].Push(r.acquired.Pop())
		if lag == 0 {
			continue
		}
		r.counts.Beats++
		metrics.Record2(r.env.Tracer, r.env.Sched.Kernel().Now(), r.trace, metrics.KindBeat,
			"ch=%d lag=%d", ch, lag)
		r.seq++
		if r.env.Sched.PostFn("rpeak-assemble", r.env.Cost.BeatPacketAssembly, r.assembleDone) {
			r.found.Push(packet.Beat{Channel: uint8(ch), Lag: uint16(lag), Seq: r.seq})
		}
	}
}

// onAssembleDone sends the oldest detected beat.
//
//hot:path
func (r *Rpeak) onAssembleDone() {
	r.payload = r.found.Pop().AppendMarshal(r.payload[:0])
	r.send(r.payload)
}
