package metrics

import (
	"math"

	"repro/internal/sim"
)

// histBounds are the shared bucket upper bounds: a 1-2-5 ladder from
// 10 µs to 50 s. Latencies in a BAN span from sub-millisecond ack
// turnarounds to multi-second rejoins after a crash, so a fixed
// logarithmic ladder covers the whole range with bounded error. Fixed
// boundaries (rather than adaptive ones) are what make histogram
// aggregation across runs and workers deterministic: merging is plain
// bucket-wise addition.
var histBounds = func() (out [histBuckets - 1]sim.Time) {
	scale := 10 * sim.Microsecond
	for i := 0; i < len(out); i += 3 {
		out[i], out[i+1], out[i+2] = scale, 2*scale, 5*scale
		scale *= 10
	}
	return out
}()

// histBuckets is the bucket count: three bounds in each of the seven
// decades from 10 µs to 10 s, plus the overflow bucket.
const histBuckets = 3*7 + 1

// HistBounds returns the shared bucket upper bounds (a copy).
func HistBounds() []sim.Time {
	return append([]sim.Time(nil), histBounds[:]...)
}

// Histogram aggregates latency samples into the fixed shared buckets.
// Counts[i] holds samples <= histBounds[i] (and > histBounds[i-1]); the
// final slot is the overflow bucket.
type Histogram struct {
	Counts []uint64
	N      uint64
	Sum    sim.Time
	Min    sim.Time
	Max    sim.Time
}

// NewHistogram creates an empty histogram over the shared bounds, its
// buckets in the same allocation.
//
//lint:allow hotalloc a recorder creates each (node, name) histogram once, on its first sample
func NewHistogram() *Histogram {
	b := &struct {
		h      Histogram
		counts [histBuckets]uint64
	}{}
	b.h.Counts = b.counts[:]
	return &b.h
}

// reset empties the histogram, keeping its buckets.
func (h *Histogram) reset() {
	clear(h.Counts)
	*h = Histogram{Counts: h.Counts}
}

// Observe adds one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v sim.Time) {
	if v < 0 {
		v = 0
	}
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
	h.Counts[h.bucket(v)]++
}

// bucket returns the index of the bucket holding v (binary search over
// the fixed ladder).
func (h *Histogram) bucket(v sim.Time) int {
	lo, hi := 0, len(histBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= histBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Avg reports the mean sample.
func (h *Histogram) Avg() sim.Time {
	if h.N == 0 {
		return 0
	}
	return h.Sum / sim.Time(h.N)
}

// Quantile reports an upper bound for the q-quantile (0 < q <= 1): the
// upper boundary of the bucket containing that rank (Max for the
// overflow bucket). The estimate is conservative but deterministic.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.N == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.N)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.N {
		rank = h.N
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if i < len(histBounds) {
				b := histBounds[i]
				if b > h.Max {
					return h.Max
				}
				return b
			}
			return h.Max
		}
	}
	return h.Max
}

// Merge adds other's samples into h (bucket-wise; both share the fixed
// bounds).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.N == 0 {
		return
	}
	if h.N == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.N += other.N
	h.Sum += other.Sum
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
}

// Row snapshots the histogram into a plain-data HistRow.
func (h *Histogram) Row(node, name string) HistRow {
	return HistRow{
		Node:    node,
		Name:    name,
		Count:   h.N,
		Sum:     h.Sum,
		Min:     h.Min,
		Max:     h.Max,
		P50:     h.Quantile(0.50),
		P90:     h.Quantile(0.90),
		P99:     h.Quantile(0.99),
		Buckets: append([]uint64(nil), h.Counts...),
	}
}
