package app

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/mcu"
	"repro/internal/sim"
	"repro/internal/tinyos"
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
// and no ISR has a completion callback: each ISR is a filed hand-off
// (isrs, mcu.HandOffs), so a crash drops the samples of exactly the
// ISRs it abandoned, the buffer's tail, and the ISR that completes a
// payload posts the payload's assembly task at its completion
// (tinyos.Sched.Follow), so the kernel pays one event per payload, the
// task's.
type Streaming struct {
	sampler
	cfg StreamingConfig

	// buf holds, in order, the payloads after the one assembled last,
	// each posted for assembly or dropped by a full task queue, and then
	// the acquisitions since; the ISRs of its tail may still be running.
	// Payloads are numbered from 1 in buffer order, and a payload's
	// assembly task carries its number as its Arg: assembled is the
	// number of the payload taken off buf last, and a task skips the
	// payloads ahead of its own, whose tasks a crash abandoned or a full
	// queue dropped. assembleDone is bound once.
	buf          []codec.Sample
	isrs         mcu.HandOffs
	isrRing      [4]sim.Pos // isrs' first ring
	assembled    uint64
	assembleDone func()
	payload      []byte // packing scratch; Send copies it
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
	// The buffer holds a payload awaiting assembly, the next payload's
	// worth and the acquisitions whose ISRs queue behind the payload
	// ISR's, which three payloads' worth leaves room for; the packing
	// scratch is sized for one payload.
	spp := cfg.SamplesPerPacket
	s := &Streaming{cfg: cfg,
		buf:     make([]codec.Sample, 0, 3*spp),
		payload: make([]byte, 0, codec.BytesFor(spp))}
	env.Sched.MCU().Register(&s.isrs, nil)
	s.isrs.Use(s.isrRing[:])
	s.assembleDone = s.onAssembleDone
	s.configure(env, cfg.Signal, cfg.SampleRateHz, cfg.Channels, s.onAcquisition)
	return s
}

// Downshift implements App: the sampling rate divides by factor,
// halving (at the default factor 2) the radio and MCU load per unit
// time. The packet format is unchanged — payloads just fill more slowly.
func (s *Streaming) Downshift(factor float64) { s.downshift(factor) }

// onAcquisition runs in hardware-event context for each sample set: it
// buffers the samples and runs the acquisition ISR, which posts the
// packet assembly as it completes if it completes a payload.
//
//hot:path
func (s *Streaming) onAcquisition(_ int64, samples []codec.Sample) {
	if lost := s.isrs.Settle(); lost > 0 {
		s.buf = s.buf[:len(s.buf)-lost*s.cfg.Channels]
	}
	s.buf = append(s.buf, samples...)
	// The per-pair cost covers the acquisition ISR and buffering.
	sched := s.env.Sched
	sched.Interrupt("ecg-sample", s.env.Cost.SamplePairStreaming, nil)
	s.isrs.File()
	if n := len(s.buf); n%s.cfg.SamplesPerPacket == 0 {
		// Packet assembly is a deferred task (header + packing); a full
		// task queue drops the payload.
		sched.Follow(tinyos.Task{Name: "ecg-assemble", Cycles: s.env.Cost.PacketAssembly,
			Run: s.assembleDone, Arg: s.assembled + uint64(n/s.cfg.SamplesPerPacket)})
	}
}

// onAssembleDone packs the payload its task carries and hands it to the
// MAC, dropping those ahead of it.
//
//hot:path
func (s *Streaming) onAssembleDone() {
	n := s.env.Sched.Arg()
	spp := s.cfg.SamplesPerPacket
	at := int(n-s.assembled-1) * spp
	s.payload = codec.AppendPack(s.payload[:0], s.buf[at:at+spp])
	s.buf = append(s.buf[:0], s.buf[at+spp:]...)
	s.assembled = n
	s.send(s.payload)
}
