package main

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		name string
		xs   []float64
		want spread
	}{
		{"one", []float64{7}, spread{7, 7, 7}},
		{"two", []float64{4, 2}, spread{3, 2.5, 3.5}},
		{"odd", []float64{5, 1, 3, 2, 4}, spread{3, 2, 4}},
		{"even", []float64{10, 40, 20, 30}, spread{25, 17.5, 32.5}},
		{"ten", []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}, spread{5.5, 3.25, 7.75}},
		{"ties", []float64{2, 2, 2, 5}, spread{2, 2, 2.75}},
	} {
		in := append([]float64(nil), c.xs...)
		if got := summarize(c.xs); got != c.want {
			t.Errorf("%s: summarize(%v) = %+v, want %+v", c.name, in, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Errorf("%s: summarize reordered its input to %v", c.name, c.xs)
				break
			}
		}
	}
}

func TestWins(t *testing.T) {
	a := []float64{10, 10, 10, 10}
	b := []float64{11, 9, 10, 12}
	for _, c := range []struct {
		better string
		want   int
	}{{"higher", 2}, {"lower", 1}, {"sideways", 0}} {
		if got := wins(a, b, c.better); got != c.want {
			t.Errorf("wins(%v, %v, %q) = %d, want %d", a, b, c.better, got, c.want)
		}
	}
	if got := wins(a, b[:2], "higher"); got != 1 {
		t.Errorf("wins over the shorter run = %d, want 1", got)
	}
}

func TestChange(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{
		{100, 106, 6},
		{80, 60, -25},
		{0, 3, math.Inf(1)},
		{0, -3, math.Inf(-1)},
		{0, 0, math.NaN()},
	} {
		if got := change(c.a, c.b); math.Float64bits(got) != math.Float64bits(c.want) && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("change(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCountDiffs(t *testing.T) {
	mk := func(kv map[string]float64) result {
		r := result{Metrics: map[string]metric{}}
		for k, v := range kv {
			unit := "count"
			if k == "ns_per_event" {
				unit = "ns"
			}
			r.Metrics[k] = metric{v, unit}
		}
		return r
	}
	a := mk(map[string]float64{"sim.events": 100, "mac.retries": 3, "ns_per_event": 80, "channel.collisions": 0})
	b := mk(map[string]float64{"sim.events": 100, "mac.retries": 4, "ns_per_event": 75, "app.packets_sent": 9})
	diffs, n := countDiffs(a, b)
	want := []string{
		"app.packets_sent: A absent, B 9",
		"channel.collisions: A 0, B absent",
		"mac.retries: A 3, B 4",
	}
	if n != 4 || len(diffs) != len(want) {
		t.Fatalf("countDiffs = %q over %d counts, want %q over 4", diffs, n, want)
	}
	for i := range want {
		if diffs[i] != want[i] {
			t.Errorf("diff %d = %q, want %q", i, diffs[i], want[i])
		}
	}
	if diffs, _ := countDiffs(a, a); len(diffs) != 0 {
		t.Errorf("a run differs from itself: %q", diffs)
	}
}
