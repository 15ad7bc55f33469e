package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The fuzzer runs every config Validate accepts for at most
// fuzzEventCap kernel events, which must carry the run at least
// fuzzMinSpan into simulated time: a component scheduling faster than
// that stalls any real-length run.
const (
	fuzzEventCap = 100_000
	fuzzMinSpan  = sim.Millisecond
)

// FuzzLoadScenario hammers the scenario JSON loader: arbitrary input
// must either decode cleanly or return an error — never panic — and a
// successfully decoded config must survive an encode/decode round trip
// unchanged. Whatever Validate accepts must also run, under an event
// cap, to a result or a *BudgetError. The corpus is seeded from the real
// scenario files under scenarios/, so mutations start from every
// construct the schema actually uses (duration strings, burst models,
// drift).
//
// Run with: go test -fuzz FuzzLoadScenario ./internal/core
func FuzzLoadScenario(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no scenario seed files found under scenarios/")
	}
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Adversarial shapes the on-disk corpus doesn't cover.
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"nodes":2,"warm_up":"1s","mac":{"protocol":"csma","maxBackoff":2}}`))
	// MAC selection: every registered protocol in bare-string form, the
	// object form with tuning knobs, and shapes the loader must reject
	// (unknown protocols, out-of-range or cross-protocol parameters).
	f.Add([]byte(`{"mac":"csma"}`))
	f.Add([]byte(`{"mac":"lpl","nodes":2,"duration":"5s"}`))
	f.Add([]byte(`{"mac":"aloha"}`))
	f.Add([]byte(`{"mac":{"protocol":"csma","minBE":2,"maxBE":6,"maxBackoffs":5}}`))
	f.Add([]byte(`{"mac":{"protocol":"lpl","checkInterval":"50ms"}}`))
	f.Add([]byte(`{"mac":{"protocol":"csma","minBE":9,"maxBE":-1}}`))
	f.Add([]byte(`{"mac":{"protocol":"lpl","checkInterval":"-10ms"}}`))
	f.Add([]byte(`{"mac":{"protocol":"lpl","checkInterval":"2s"}}`))
	f.Add([]byte(`{"mac":{"protocol":"static","maxBackoffs":1}}`))
	f.Add([]byte(`{"mac":{"protocol":"csma","checkInterval":"100ms"}}`))
	f.Add([]byte(`{"mac":12}`))
	f.Add([]byte(`{"cycle":12345,"duration":9}`))
	f.Add([]byte(`{"cycle":"-5ms","duration":"-1s","warmup":"-1s","startStagger":"-1ms"}`))
	f.Add([]byte(`{"burst":{"pGoodToBad":1e308,"berBad":-1}}`))
	f.Add([]byte(`{"nodes":-1,"sampleRateHz":1e999}`))
	// Fault schedules: valid mixes plus windows the validator must reject.
	f.Add([]byte(`{"nodes":2,"duration":"5s","faults":[` +
		`{"kind":"crash","node":1,"at":"1s","reboot_after":"500ms"},` +
		`{"kind":"blackout","from":"node2","to":"bs","at":"2s","until":"3s"},` +
		`{"kind":"interference","at":"4s","until":"4500ms"}]}`))
	f.Add([]byte(`{"faults":[{"kind":"meteor","at":"1s"}]}`))
	f.Add([]byte(`{"faults":[{"kind":"crash","node":0,"at":"-1s","reboot_after":"-2s"}]}`))
	f.Add([]byte(`{"faults":[{"kind":"blackout","from":"bs","to":"bs","at":"9s","until":"1s"}]}`))
	f.Add([]byte(`{"slotReclaimCycles":-3,"faults":[{"kind":"crash","node":1,"at":"1s"},{"kind":"crash","node":1,"at":"1s"}]}`))
	// Battery lifecycle: presets with scaling, explicit ratings, brownout
	// thresholds the curve cannot cross, policy knobs on and off a cell.
	f.Add([]byte(`{"nodes":2,"duration":"5s","battery":{"cell":"cr2032","capacityScale":1e-3},` +
		`"brownoutV":2.1,"degradePolicy":{"stretchSOC":0.4,"stretchEvery":3,"downshiftSOC":0.2,"beaconOnlySOC":0.06}}`))
	f.Add([]byte(`{"battery":{"capacityMAh":160,"voltageV":3.7,"efficiency":0.9}}`))
	f.Add([]byte(`{"battery":{"cell":"unobtainium"}}`))
	f.Add([]byte(`{"battery":{"cell":"cr2032"},"brownoutV":9.9}`))
	f.Add([]byte(`{"battery":{"cell":"cr2032"},"brownoutV":-1}`))
	f.Add([]byte(`{"brownoutV":2.2}`))
	f.Add([]byte(`{"degradePolicy":{"stretchSOC":0.1,"downshiftSOC":0.2}}`))
	f.Add([]byte(`{"battery":{"cell":"lipo160","capacityScale":-1},"degradePolicy":{"stretchEvery":1}}`))
	f.Add([]byte(`{"faults":[{"kind":"brownout","node":1,"at":"1s"}]}`))
	// Audit block: defaulted, explicit, and cadences the loader must
	// reject (zero or negative would stall the sweep loop).
	f.Add([]byte(`{"nodes":1,"duration":"5s","audit":{}}`))
	f.Add([]byte(`{"nodes":1,"duration":"5s","audit":{"checkInterval":"100ms","limit":50}}`))
	f.Add([]byte(`{"audit":{"checkInterval":"0s"}}`))
	f.Add([]byte(`{"audit":{"checkInterval":"-250ms"}}`))
	f.Add([]byte(`{"audit":{"checkInterval":"fast"}}`))
	f.Add([]byte(`{"audit":{"limit":-1}}`))
	// Observability fields: the metrics switch and trace ring cap.
	f.Add([]byte(`{"nodes":2,"duration":"5s","metrics":true,"traceLimit":100}`))
	f.Add([]byte(`{"metrics":false,"traceLimit":-1}`))
	f.Add([]byte(`{"metrics":1,"traceLimit":"many"}`))
	// Shapes Validate once let through to a kernel panic or a stalled
	// run: a beacon cycle shorter than the base station's turnaround, an
	// LPL check interval shorter than its probe, and more nodes than
	// one-byte IDs can name.
	f.Add([]byte(`{"mac":"static","nodes":5,"cycle":"800us","app":"streaming","sampleRateHz":205,"duration":"2s"}`))
	f.Add([]byte(`{"mac":{"protocol":"lpl","checkInterval":"1ns"},"nodes":5,"app":"streaming","sampleRateHz":205,"duration":"2s"}`))
	f.Add([]byte(`{"mac":"static","nodes":300,"cycle":"30ms","app":"streaming","sampleRateHz":205,"duration":"2s"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ConfigFromJSON(data)
		if err != nil {
			return // rejecting malformed input is the contract
		}

		// Re-encoding a decoded config must succeed and decode back to
		// the same value (the schema loses nothing it accepts).
		out, err := ConfigToJSON(cfg)
		if err != nil {
			t.Fatalf("ConfigToJSON failed on decoded config: %v\ninput: %q", err, data)
		}
		back, err := ConfigFromJSON(out)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v\nencoded: %s", err, out)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("round trip changed the config:\n was %+v\n got %+v\n encoded: %s", cfg, back, out)
		}

		// Validation applies defaults or rejects — it must not panic,
		// and whatever it accepts must carry non-negative times (the
		// kernel panics on negative horizons, so Validate is the gate).
		if err := cfg.Validate(); err != nil {
			return
		}
		if cfg.Duration < 0 || cfg.Warmup < 0 || cfg.Cycle < 0 || cfg.StartStagger < 0 {
			t.Fatalf("Validate accepted negative times: %+v", cfg)
		}
		capped := cfg.MaxEvents == 0 || cfg.MaxEvents > fuzzEventCap
		if capped {
			cfg.MaxEvents = fuzzEventCap
		}
		_, err = Run(cfg)
		var budget *BudgetError
		switch {
		case err == nil:
		case !errors.As(err, &budget):
			t.Fatalf("Run failed on a validated config: %v\ninput: %q", err, data)
		case capped && budget.At < fuzzMinSpan:
			t.Fatalf("%d events simulated only %v\ninput: %q", budget.Events, budget.At, data)
		}
	})
}
