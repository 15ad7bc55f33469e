package core

import (
	"testing"

	"repro/internal/app"
	"repro/internal/channel"
	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
)

// forwarded registers an OnData hook on bs that keeps a copy of every
// frame the base station forwards, payload included, in order.
func forwarded(bs mac.BSMAC) *[]mac.RxRecord {
	var recs []mac.RxRecord
	bs.OnData(func(rec mac.RxRecord) {
		rec.Payload = append([]byte(nil), rec.Payload...)
		recs = append(recs, rec)
	})
	return &recs
}

// TestEndToEndSignalFidelity drives the full stack — generator, ASIC,
// OS, packing, FIFO, air, CRC, drain, base station — and verifies that
// the ECG waveform reconstructed from the received payloads is the
// generator's sample stream, bit-exact and gap-free. The energy model
// only means something if the data path it prices actually works.
func TestEndToEndSignalFidelity(t *testing.T) {
	k := sim.NewKernel(17)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	base := node.NewBase(k, ch, tracer, mac.BSConfig{Protocol: mac.ProtoStatic, StaticCycle: 60 * sim.Millisecond})
	sig := ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, NoiseAmp: 0.02, Seed: 17})

	const fs = 100.0
	s := node.NewSensor(k, ch, tracer, mac.NodeConfig{Protocol: mac.ProtoStatic, NodeID: 1, Profile: platform.IMEC()})
	s.AttachApp(func(env app.Env) app.App {
		return app.NewStreaming(env, app.StreamingConfig{
			SampleRateHz: fs, Channels: 2, Signal: sig,
		})
	})

	log := forwarded(base.BS)
	k.Schedule(0, func(*sim.Kernel) { base.Start() })
	k.Schedule(5*sim.Millisecond, func(*sim.Kernel) { s.Start() })
	k.RunUntil(20 * sim.Second)

	recs := *log
	if len(recs) < 100 {
		t.Fatalf("only %d payloads arrived", len(recs))
	}
	// Reconstruct the two channel streams from consecutive payloads.
	var ch0, ch1 []codec.Sample
	for _, rec := range recs {
		samples, err := codec.Unpack(rec.Payload, 12)
		if err != nil {
			t.Fatalf("payload undecodable: %v", err)
		}
		for i := 0; i < 12; i += 2 {
			ch0 = append(ch0, samples[i])
			ch1 = append(ch1, samples[i+1])
		}
	}
	// Bit-exact match against the generator output from acquisition 0:
	// no loss, no reordering, no duplication anywhere on the path.
	for i := range ch0 {
		if want := sig.SampleAt(0, int64(i), fs); ch0[i] != want {
			t.Fatalf("ch0 sample %d = %d, want %d", i, ch0[i], want)
		}
		if want := sig.SampleAt(1, int64(i), fs); ch1[i] != want {
			t.Fatalf("ch1 sample %d = %d, want %d", i, ch1[i], want)
		}
	}
	// And the stream kept pace with acquisition: every produced payload
	// reached the base station (1 payload per cycle at 100 Hz x 2ch =
	// 16.7 samples... 12 samples/payload -> payload every 60ms = cycle).
	if float64(len(ch0)) < 0.9*fs*19 {
		t.Fatalf("stream starved: %d samples in ~19s at %g Hz", len(ch0), fs)
	}
	_ = packet.AddrBSData
}

// TestEndToEndBeatReports drives the Rpeak stack and verifies the beat
// packets the base station receives decode to the paper's "beat occurred
// Lag samples ago" semantics and reconstruct the heart rate.
func TestEndToEndBeatReports(t *testing.T) {
	k := sim.NewKernel(19)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	base := node.NewBase(k, ch, tracer, mac.BSConfig{Protocol: mac.ProtoStatic, StaticCycle: 120 * sim.Millisecond})
	sig := ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, Seed: 19})

	s := node.NewSensor(k, ch, tracer, mac.NodeConfig{Protocol: mac.ProtoStatic, NodeID: 1, Profile: platform.IMEC()})
	s.AttachApp(func(env app.Env) app.App {
		return app.NewRpeak(env, app.RpeakConfig{Channels: 1, Signal: sig})
	})

	log := forwarded(base.BS)
	k.Schedule(0, func(*sim.Kernel) { base.Start() })
	k.Schedule(5*sim.Millisecond, func(*sim.Kernel) { s.Start() })
	k.RunUntil(62 * sim.Second)

	var beatsAt []float64
	for _, rec := range *log {
		beat, err := packet.UnmarshalBeat(rec.Payload)
		if err != nil {
			t.Fatalf("non-beat payload at BS: %v", err)
		}
		if beat.Channel != 0 {
			t.Fatalf("beat on channel %d, only channel 0 is monitored", beat.Channel)
		}
		// Reconstruct the beat instant: packet arrival minus transport
		// latency is imprecise, but the INTERVALS between successive
		// reported beats recover the heart rate.
		beatsAt = append(beatsAt, rec.At.Seconds()-float64(beat.Lag)/200.0)
	}
	if len(beatsAt) < 60 {
		t.Fatalf("only %d beats reported in ~60s at 75 bpm", len(beatsAt))
	}
	// Mean interval ~0.8s (75 bpm).
	var sum float64
	for i := 1; i < len(beatsAt); i++ {
		sum += beatsAt[i] - beatsAt[i-1]
	}
	mean := sum / float64(len(beatsAt)-1)
	if mean < 0.7 || mean > 0.9 {
		t.Fatalf("reconstructed RR interval %.3fs, want ~0.8", mean)
	}
}
