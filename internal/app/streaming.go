package app

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/mcu"
)

// StreamingConfig parameterises the ECG streaming application of §5.1.
type StreamingConfig struct {
	// SampleRateHz is the per-channel sampling frequency (the Table 1
	// sweep parameter).
	SampleRateHz float64
	// Channels is the number of ECG channels streamed (the paper: 2).
	Channels int
	// SamplesPerPacket is the number of 12-bit samples packed into one
	// payload; 0 selects 12 (= the paper's 18-byte payload).
	SamplesPerPacket int
	// Signal drives the electrodes.
	Signal *ecg.Generator
}

// Streaming is the ECG streaming application: every acquisition buffers
// one sample per channel; once a payload's worth has accumulated it is
// packed (12-bit samples, 18 bytes) and handed to the MAC for the next
// slot.
type Streaming struct {
	env Env
	cfg StreamingConfig

	buf []codec.Sample
	// acquired holds each acquisition's samples from the hardware event
	// until its ISR completes, and batches each full payload's samples
	// until its assembly task runs; sampleDone and assembleDone, bound
	// once, pop them.
	acquired     mcu.Queue[codec.Sample]
	batches      mcu.Queue[codec.Sample]
	sampleDone   func()
	assembleDone func()
	batch        []codec.Sample // assembly scratch
	payload      []byte         // packing scratch; Send copies it
	sent         uint64
	dropped      uint64
	running      bool
}

// NewStreaming builds the application and configures the front-end.
func NewStreaming(env Env, cfg StreamingConfig) *Streaming {
	env.validate()
	if cfg.SampleRateHz <= 0 {
		panic("app: streaming sample rate must be positive")
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 2
	}
	if cfg.SamplesPerPacket <= 0 {
		cfg.SamplesPerPacket = 12
	}
	if cfg.SamplesPerPacket%cfg.Channels != 0 {
		panic(fmt.Sprintf("app: %d samples/packet not divisible by %d channels",
			cfg.SamplesPerPacket, cfg.Channels))
	}
	if cfg.Signal == nil {
		panic("app: streaming needs a signal source")
	}
	s := &Streaming{env: env, cfg: cfg,
		acquired: mcu.NewQueue[codec.Sample](env.Sched.MCU()),
		batches:  mcu.NewQueue[codec.Sample](env.Sched.MCU())}
	s.sampleDone = s.onSampleDone
	s.assembleDone = s.onAssembleDone

	channels := make([]int, cfg.Channels)
	for i := range channels {
		channels[i] = i
	}
	env.Frontend.Configure(signalSource(cfg.Signal, cfg.SampleRateHz), channels, s.onAcquisition)
	return s
}

// Name implements App.
func (s *Streaming) Name() string { return "ecg-stream" }

// Start implements App.
func (s *Streaming) Start() {
	if s.running {
		return
	}
	s.running = true
	s.env.Frontend.Start(s.cfg.SampleRateHz)
}

// Stop implements App.
func (s *Streaming) Stop() {
	if !s.running {
		return
	}
	s.running = false
	s.env.Frontend.Stop()
}

// Downshift implements Downshifter: the sampling rate divides by
// factor, halving (at the default factor 2) the radio and MCU load per
// unit time. The packet format is unchanged — payloads just fill more
// slowly.
func (s *Streaming) Downshift(factor float64) {
	if factor <= 1 {
		return
	}
	s.cfg.SampleRateHz /= factor
	channels := make([]int, s.cfg.Channels)
	for i := range channels {
		channels[i] = i
	}
	s.env.Frontend.Configure(signalSource(s.cfg.Signal, s.cfg.SampleRateHz), channels, s.onAcquisition)
	s.env.Frontend.Retune(s.cfg.SampleRateHz)
}

// PacketsSent reports how many payloads were handed to the MAC.
func (s *Streaming) PacketsSent() uint64 { return s.sent }

// PacketsDropped reports payloads the MAC queue refused.
func (s *Streaming) PacketsDropped() uint64 { return s.dropped }

// ResetCounters zeroes the application statistics (post-warmup).
func (s *Streaming) ResetCounters() {
	s.sent = 0
	s.dropped = 0
}

// onAcquisition runs in hardware-event context for each sample set.
//
//hot:path
func (s *Streaming) onAcquisition(_ int64, samples []codec.Sample) {
	for _, v := range samples {
		s.acquired.Push(v)
	}
	// The per-pair cost covers the acquisition ISR and buffering.
	s.env.Sched.Interrupt("ecg-sample", s.env.Cost.SamplePairStreaming, s.sampleDone)
}

// onSampleDone buffers one acquisition when its ISR completes and posts
// the packet assembly once a payload's worth has accumulated.
//
//hot:path
func (s *Streaming) onSampleDone() {
	for range s.cfg.Channels {
		s.buf = append(s.buf, s.acquired.Pop())
	}
	spp := s.cfg.SamplesPerPacket
	if len(s.buf) < spp {
		return
	}
	// Packet assembly is a deferred task (header + packing); a full task
	// queue drops the batch.
	if s.env.Sched.PostFn("ecg-assemble", s.env.Cost.PacketAssembly, s.assembleDone) {
		for _, v := range s.buf[:spp] {
			s.batches.Push(v)
		}
	}
	s.buf = append(s.buf[:0], s.buf[spp:]...)
}

// onAssembleDone packs the oldest batch and hands it to the MAC.
//
//hot:path
func (s *Streaming) onAssembleDone() {
	s.batch = s.batch[:0]
	for range s.cfg.SamplesPerPacket {
		s.batch = append(s.batch, s.batches.Pop())
	}
	s.payload = codec.AppendPack(s.payload[:0], s.batch)
	if s.env.Mac.Send(s.payload) {
		s.sent++
	} else {
		s.dropped++
	}
}
