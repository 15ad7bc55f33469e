package ecg

import "repro/internal/codec"

// Detector is the on-node R-peak detection algorithm of the paper's
// second application (§5.2): it is fed one sample at a time and returns 0
// for "no beat", or a positive lag meaning "the sample submitted lag
// calls ago was a heart beat". (The paper's example: a return of 74 at a
// 200 Hz rate means a beat 370 ms ago.)
//
// The algorithm is a streaming adaptive-threshold peak finder: a slow
// moving-average baseline is removed, a decaying estimate of the R-peak
// amplitude sets the detection threshold, and a candidate peak is
// confirmed — and reported, with its lag — once the signal has fallen
// back below half the threshold, which rejects the T wave and noise
// spikes. A refractory period of 250 ms suppresses double detection.
type Detector struct {
	// per-rate constants, fixed at construction.
	alpha      float64 // baseline EMA weight, ~1.6 s time constant
	refractory int64   // samples suppressed after a beat

	// baseline removal: exponential moving average of the raw signal.
	baseline    float64
	baselineSet bool

	// adaptive amplitude estimate and threshold.
	peakEMA float64

	// candidate tracking.
	inPeak  bool
	peakVal float64
	peakIdx int64

	// refractory bookkeeping.
	lastBeat int64

	idx   int64
	beats uint64
}

// refractorySeconds suppresses re-detection after a beat; 250 ms caps the
// detectable rate at 240 bpm, far above physiological BAN subjects.
const refractorySeconds = 0.25

// NewDetector creates a detector for the given sampling rate.
func NewDetector(fs float64) *Detector {
	if fs <= 0 {
		panic("ecg: detector sampling rate must be positive")
	}
	return &Detector{
		alpha:      1.0 / (1.6 * fs),
		refractory: int64(refractorySeconds * fs),
		peakEMA:    0.3, // bootstrap estimate; adapts within a few beats
		lastBeat:   -1 << 62,
	}
}

// Beats reports how many beats have been detected so far.
func (d *Detector) Beats() uint64 { return d.beats }

// Push feeds one ADC sample and returns 0 (no beat) or the positive lag,
// in samples, of a newly confirmed beat.
func (d *Detector) Push(s codec.Sample) int {
	x := codec.Dequantize(s)
	i := d.idx
	d.idx++

	// Baseline removal: ~1.6 s time constant.
	if !d.baselineSet {
		d.baseline = x
		d.baselineSet = true
	}
	d.baseline += float64(d.alpha * (x - d.baseline))
	v := x - d.baseline

	thr := 0.5 * d.peakEMA

	if d.inPeak {
		if v > d.peakVal {
			d.peakVal = v
			d.peakIdx = i
		}
		if v < thr*0.5 {
			// Fell back below half-threshold: confirm the candidate.
			d.inPeak = false
			d.lastBeat = d.peakIdx
			d.beats++
			// Adapt the amplitude estimate toward the confirmed peak.
			d.peakEMA += float64(0.25 * (d.peakVal - d.peakEMA))
			lag := int(i - d.peakIdx)
			if lag < 1 {
				lag = 1
			}
			return lag
		}
		return 0
	}

	if v > thr && i-d.lastBeat > d.refractory {
		d.inPeak = true
		d.peakVal = v
		d.peakIdx = i
	}
	return 0
}
