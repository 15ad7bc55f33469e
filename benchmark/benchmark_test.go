package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// smokeWindow shortens the measurement windows so every workload runs in
// well under a second.
const smokeWindow = 2 * sim.Second

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metric declarations from the repository's
// BENCHMARK.json: name to unit, for each of the two sets.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	toMap := func(ms []declaredMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	return toMap(spec.EndToEnd), toMap(spec.PerLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics requires got to hold exactly the want metrics, with their
// declared units, valid names and finite values.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		case unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("declared metric %s was not emitted", name)
		}
	}
}

// TestWorkloadsDeterministic runs every workload twice, the second time
// under the CPU profiler, and requires bit-identical simulated results
// matching the reference fingerprint.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3, smokeWindow)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := w.runReference()
			if err != nil {
				t.Fatal(err)
			}
			simulate := func() any {
				if w.tables {
					reps, err := experiments.ReproduceAll(w.opts)
					if err != nil {
						t.Fatal(err)
					}
					return reps
				}
				res, err := core.Run(w.configs[0])
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := simulate()
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				t.Fatal(err)
			}
			traced := simulate()
			pprof.StopCPUProfile()
			if !reflect.DeepEqual(plain, traced) {
				t.Error("profiled run differs from the plain run")
			}
			for i := 0; i < 2; i++ {
				fp, err := w.iterate()
				if err != nil {
					t.Fatal(err)
				}
				if fp != ref.fingerprint {
					t.Errorf("iteration %d fingerprint %q, reference %q", i, fp, ref.fingerprint)
				}
			}
		})
	}
}

// TestEmittedMetrics runs the whole benchmark briefly, all workloads in
// one process and one workload alone in each trace mode, and checks the
// emitted metrics against BENCHMARK.json.
func TestEmittedMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	both := map[string]string{}
	for _, set := range []map[string]string{endToEnd, perLayer} {
		for k, v := range set {
			both[k] = v
		}
	}

	res, err := run(options{workload: "all", seed: 3, seconds: 0.5, trace: true, window: smokeWindow}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("all workloads: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, name := range workloadNames {
		got := map[string]metric{}
		for k, v := range res.Metrics {
			if rest, ok := strings.CutPrefix(k, name+"."); ok {
				got[rest] = v
			}
		}
		checkMetrics(t, got, both)
	}

	for _, c := range []struct {
		trace bool
		want  map[string]string
	}{{false, endToEnd}, {true, perLayer}} {
		res, err := run(options{workload: "rpeak-onnode", seed: 3, seconds: 0.5, trace: c.trace, window: smokeWindow}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("trace=%v: %d of %d operations failed", c.trace, res.Failed, res.Attempted)
		}
		checkMetrics(t, res.Metrics, c.want)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", seed: 1, seconds: 1}, io.Discard); err == nil {
		t.Error("unknown workload accepted")
	}
}
