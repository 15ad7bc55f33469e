package app

import (
	"math"

	"repro/internal/approx"
	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/packet"
)

// HRVConfig parameterises the heart-rate-variability application, the
// framework's demonstration that the §5.2 trade — more microcontroller
// work for less radio — extends past per-beat events: the node runs the
// R-peak detector, accumulates beat-to-beat (RR) intervals, and
// transmits one statistics packet per window of beats.
type HRVConfig struct {
	// SampleRateHz is fixed by the detector; 0 selects 200 Hz.
	SampleRateHz float64
	// WindowBeats is how many RR intervals one summary covers; 0
	// selects 16.
	WindowBeats int
	// Signal drives the electrode (HRV needs one lead).
	Signal *ecg.Generator
}

// HRV is the on-node HRV analysis application.
type HRV struct {
	sampler
	cfg HRVConfig

	detector *ecg.Detector
	lastBeat int64 // sample index of the previous beat (-1 = none)
	sample   int64
	rrs      []float64 // RR intervals of the open window, seconds
	seq      uint8
}

// NewHRV builds the application and configures the front-end.
func NewHRV(env Env, cfg HRVConfig) *HRV {
	env.validate()
	if approx.Unset(cfg.SampleRateHz) {
		cfg.SampleRateHz = 200
	}
	if cfg.SampleRateHz <= 0 {
		panic("app: hrv sample rate must be positive")
	}
	if cfg.WindowBeats == 0 {
		cfg.WindowBeats = 16
	}
	if cfg.WindowBeats < 2 || cfg.WindowBeats > 255 {
		panic("app: hrv window must hold 2..255 beats")
	}
	if cfg.Signal == nil {
		panic("app: hrv needs a signal source")
	}
	h := &HRV{
		cfg:      cfg,
		detector: ecg.NewDetector(cfg.SampleRateHz),
		lastBeat: -1,
	}
	h.configure(env, cfg.Signal, cfg.SampleRateHz, 1, h.onAcquisition)
	return h
}

// Downshift implements App. The detector is rebuilt at the new rate and
// the RR baseline resets: a beat index from the old rate would corrupt
// the first interval computed at the new one, so the stream restarts
// from the next beat instead.
func (h *HRV) Downshift(factor float64) {
	if h.downshift(factor) {
		h.detector = ecg.NewDetector(h.rate)
		h.lastBeat = -1
	}
}

// onAcquisition runs the detector and the RR statistics pipeline.
func (h *HRV) onAcquisition(i int64, samples []codec.Sample) {
	// Detector cost per sample plus a small RR bookkeeping charge.
	cycles := h.env.Cost.RpeakAcquirePair + h.env.Cost.RpeakPerChannelSample
	s0 := samples[0] // the front-end reuses its register
	h.env.Sched.Interrupt("hrv-sample", cycles, func() {
		idx := h.sample
		h.sample++
		lag := h.detector.Push(s0)
		if lag == 0 {
			return
		}
		beatAt := idx - int64(lag)
		h.counts.Beats++
		if h.lastBeat >= 0 {
			rr := float64(beatAt-h.lastBeat) / h.rate
			h.rrs = append(h.rrs, rr)
		}
		h.lastBeat = beatAt
		if len(h.rrs) < h.cfg.WindowBeats {
			return
		}
		window := h.rrs
		h.rrs = nil
		// Summarising a window is a deferred task; its cost scales with
		// the window length (fixed-point statistics on the MSP430).
		statCycles := int64(len(window)) * 220
		h.env.Sched.PostFn("hrv-summarise", statCycles, func() {
			h.sendSummary(window)
		})
	})
}

// sendSummary computes the window statistics and queues the packet.
func (h *HRV) sendSummary(rrs []float64) {
	var sum, minRR, maxRR float64
	minRR = math.Inf(1)
	for _, rr := range rrs {
		sum += rr
		if rr < minRR {
			minRR = rr
		}
		if rr > maxRR {
			maxRR = rr
		}
	}
	mean := sum / float64(len(rrs))
	var ssq float64
	for i := 1; i < len(rrs); i++ {
		d := rrs[i] - rrs[i-1]
		ssq += float64(d * d)
	}
	rmssd := 0.0
	if len(rrs) > 1 {
		rmssd = math.Sqrt(ssq / float64(len(rrs)-1))
	}

	h.seq++
	p := packet.HRV{
		MeanRRMs: clampMs(mean),
		RMSSDMs:  clampMs(rmssd),
		MinRRMs:  clampMs(minRR),
		MaxRRMs:  clampMs(maxRR),
		Beats:    uint8(len(rrs)),
		Seq:      h.seq,
	}
	h.send(p.Marshal())
}

// clampMs converts seconds to a bounded millisecond field.
func clampMs(s float64) uint16 {
	ms := float64(s * 1e3)
	if ms < 0 {
		return 0
	}
	if ms > 65535 {
		return 65535
	}
	return uint16(ms + 0.5)
}
