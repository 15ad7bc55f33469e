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
//
// An acquisition's samples enter the buffer with its ISR's submission,
// and only the ISR that completes a payload has a completion callback:
// the others cost the kernel no event. isrs marks where every ISR
// completes, so a crash drops the samples of exactly the ISRs it
// abandoned, the buffer's tail.
type Streaming struct {
	sampler
	cfg StreamingConfig

	// buf holds the samples of the acquisitions since the last payload
	// ISR completed, in order; the ISRs of its tail may still be running.
	buf  []codec.Sample
	isrs mcu.Marks
	// batches holds each full payload's samples until its assembly task
	// runs; sampleDone and assembleDone are bound once.
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
	// The buffer holds a payload's worth plus the acquisitions whose
	// ISRs queue behind the payload ISR's, which two payloads' worth
	// leaves room for; the assembly scratch holds one payload's worth.
	// One allocation backs both, the packing scratch is sized for one
	// payload and the batch queue for one payload's worth.
	spp := cfg.SamplesPerPacket
	scratch := make([]codec.Sample, 3*spp)
	s := &Streaming{cfg: cfg,
		batches: mcu.NewQueue[codec.Sample](env.Sched.MCU()),
		buf:     scratch[: 0 : 2*spp],
		batch:   scratch[2*spp : 2*spp],
		payload: make([]byte, 0, codec.BytesFor(spp))}
	s.batches.Grow(spp)
	env.Sched.MCU().Track(&s.isrs)
	s.sampleDone = s.onSampleDone
	s.assembleDone = s.onAssembleDone
	s.configure(env, cfg.Signal, cfg.SampleRateHz, cfg.Channels, s.onAcquisition)
	return s
}

// Downshift implements App: the sampling rate divides by factor,
// halving (at the default factor 2) the radio and MCU load per unit
// time. The packet format is unchanged — payloads just fill more slowly.
func (s *Streaming) Downshift(factor float64) { s.downshift(factor) }

// onAcquisition runs in hardware-event context for each sample set: it
// buffers the samples and runs the acquisition ISR, whose completion
// posts the packet assembly if it completes a payload.
//
//hot:path
func (s *Streaming) onAcquisition(_ int64, samples []codec.Sample) {
	if lost := s.isrs.Settle(); lost > 0 {
		s.buf = s.buf[:len(s.buf)-lost*s.cfg.Channels]
	}
	s.buf = append(s.buf, samples...)
	var done func()
	if len(s.buf)%s.cfg.SamplesPerPacket == 0 {
		done = s.sampleDone
	}
	// The per-pair cost covers the acquisition ISR and buffering.
	s.env.Sched.Interrupt("ecg-sample", s.env.Cost.SamplePairStreaming, done)
	s.isrs.Mark()
}

// onSampleDone completes a payload's last ISR: it posts the packet
// assembly of the payload's worth at the head of the buffer.
//
//hot:path
func (s *Streaming) onSampleDone() {
	// Packet assembly is a deferred task (header + packing); a full task
	// queue drops the batch.
	spp := s.cfg.SamplesPerPacket
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
