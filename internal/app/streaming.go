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
	sampler
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
	// The buffer holds at most a payload's worth plus one acquisition,
	// and the assembly scratch one payload's worth: one allocation backs
	// both, and the packing scratch is sized for one payload.
	spp, ch := cfg.SamplesPerPacket, cfg.Channels
	scratch := make([]codec.Sample, 2*spp+ch)
	s := &Streaming{cfg: cfg,
		acquired: mcu.NewQueue[codec.Sample](env.Sched.MCU()),
		batches:  mcu.NewQueue[codec.Sample](env.Sched.MCU()),
		buf:      scratch[: 0 : spp+ch],
		batch:    scratch[spp+ch : spp+ch],
		payload:  make([]byte, 0, codec.BytesFor(spp))}
	s.sampleDone = s.onSampleDone
	s.assembleDone = s.onAssembleDone
	s.configure(env, cfg.Signal, cfg.SampleRateHz, cfg.Channels, s.onAcquisition)
	return s
}

// Downshift implements App: the sampling rate divides by factor,
// halving (at the default factor 2) the radio and MCU load per unit
// time. The packet format is unchanged — payloads just fill more slowly.
func (s *Streaming) Downshift(factor float64) { s.downshift(factor) }

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
	s.send(s.payload)
}
