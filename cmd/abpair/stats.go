package main

import (
	"math"
	"slices"
)

// spread is the median and quartiles of one side's runs.
type spread struct {
	median, q1, q3 float64
}

// summarize reports the median and quartiles of xs, which it leaves
// unchanged. It needs at least one value.
func summarize(xs []float64) spread {
	s := slices.Clone(xs)
	slices.Sort(s)
	return spread{median: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75)}
}

// quantile reports the q-quantile of sorted, interpolating linearly
// between the two closest ranks (the (n-1)·q rule, R's type 7).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// wins counts the pairs whose candidate value b[i] is strictly better
// than its baseline a[i], "higher" or "lower" being better. Ties win for
// neither side.
func wins(a, b []float64, better string) int {
	n := 0
	for i := range min(len(a), len(b)) {
		if better == "higher" && b[i] > a[i] || better == "lower" && b[i] < a[i] {
			n++
		}
	}
	return n
}

// change is the relative change from a to b in percent: ±Inf or NaN
// when a is 0.
func change(a, b float64) float64 {
	return 100 * (b - a) / a
}
