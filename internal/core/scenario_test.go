package core

import (
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/mac"
	"repro/internal/sim"
)

func TestConfigFromJSON(t *testing.T) {
	data := []byte(`{
        "mac": "dynamic",
        "nodes": 3,
        "app": "rpeak",
        "duration": "30s",
        "warmup": "2s",
        "seed": 7,
        "clockDriftPPM": 50,
        "burst": {"PGoodToBad": 0.02, "PBadToGood": 0.1, "BERBad": 0.001}
    }`)
	cfg, err := ConfigFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Variant != mac.Dynamic || cfg.Nodes != 3 || cfg.App != AppRpeak {
		t.Fatalf("decoded %+v", cfg)
	}
	if cfg.Duration != 30*sim.Second || cfg.Warmup != 2*sim.Second {
		t.Fatalf("durations: %v %v", cfg.Duration, cfg.Warmup)
	}
	if cfg.Burst == nil || cfg.Burst.BERBad != 0.001 {
		t.Fatalf("burst: %+v", cfg.Burst)
	}
	if cfg.ClockDriftPPM != 50 || cfg.Seed != 7 {
		t.Fatalf("scalars: %+v", cfg)
	}
	// The decoded config runs.
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.JoinedAll {
		t.Fatalf("scenario did not reach steady state")
	}
}

func TestConfigFromJSONErrors(t *testing.T) {
	cases := []string{
		`{`,                                  // malformed
		`{"mac": "aloha"}`,                   // unknown protocol
		`{"duration": "yesterday"}`,          // bad duration
		`{"mac": {"protocol": "tokenring"}}`, // unknown protocol, object form
		`{"mac": {"protocol": "static", "minBE": 3}}`,            // backoff knob on a TDMA MAC
		`{"mac": {"protocol": "csma", "minBE": 9}}`,              // exponent beyond the cap
		`{"mac": {"protocol": "csma", "minBE": -1}}`,             // negative exponent
		`{"mac": {"protocol": "csma", "minBE": 6, "maxBE": 4}}`,  // inverted bounds
		`{"mac": {"protocol": "csma", "maxBackoffs": 11}}`,       // beyond the retry cap
		`{"mac": {"protocol": "csma", "checkInterval": "50ms"}}`, // LPL knob on CSMA
		`{"mac": {"protocol": "lpl", "maxBE": 5}}`,               // CSMA knob on LPL
		`{"mac": {"protocol": "lpl", "checkInterval": "-10ms"}}`, // negative cadence
		`{"mac": {"protocol": "lpl", "checkInterval": "2s"}}`,    // beyond the 1 s ceiling
		`{"nodes": 2} {"nodes": 3}`,                              // trailing data
	}
	for i, s := range cases {
		if _, err := ConfigFromJSON([]byte(s)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}

	// Unknown keys fail loudly instead of leaving a default in place.
	// (encoding/json matches keys case-insensitively, so "warmUp" is
	// still the warmup key; a misspelling has to differ in letters.)
	unknown := []string{
		`{"warm_up": "1s"}`, // misspelled top-level key
		`{"mac": {"protocol": "csma", "maxBackoff": 3}}`, // unknown knob in the mac object
		`{"scheduler": "heap"}`,                          // the scheduler is not a scenario choice
	}
	for _, s := range unknown {
		_, err := ConfigFromJSON([]byte(s))
		if err == nil || !strings.HasPrefix(err.Error(), "core: bad scenario: ") ||
			!strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err = %v, want core: bad scenario: ... unknown field", s, err)
		}
	}
}

func TestConfigFromJSONMacForms(t *testing.T) {
	// Bare string and object forms decode to the same selection.
	bare, err := ConfigFromJSON([]byte(`{"mac": "csma"}`))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := ConfigFromJSON([]byte(`{"mac": {"protocol": "csma"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Protocol != mac.ProtoCSMA || obj.Protocol != mac.ProtoCSMA {
		t.Fatalf("protocols: bare=%q obj=%q", bare.Protocol, obj.Protocol)
	}
	if bare.MACParams != obj.MACParams {
		t.Fatalf("params differ: %+v vs %+v", bare.MACParams, obj.MACParams)
	}

	// Tuning knobs ride the object form.
	cfg, err := ConfigFromJSON([]byte(
		`{"mac": {"protocol": "csma", "minBE": 2, "maxBE": 6, "maxBackoffs": 5}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := mac.Params{MinBE: 2, MaxBE: 6, MaxBackoffs: 5}
	if cfg.MACParams != want {
		t.Fatalf("params = %+v, want %+v", cfg.MACParams, want)
	}

	lpl, err := ConfigFromJSON([]byte(
		`{"mac": {"protocol": "lpl", "checkInterval": "50ms"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if lpl.Protocol != mac.ProtoLPL || lpl.MACParams.CheckInterval != 50*sim.Millisecond {
		t.Fatalf("lpl decode: %+v", lpl.MACParams)
	}

	// The legacy names still populate Variant for callers that read it.
	dyn, err := ConfigFromJSON([]byte(`{"mac": "dynamic"}`))
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Variant != mac.Dynamic || dyn.Protocol != mac.ProtoDynamic {
		t.Fatalf("dynamic decode: variant=%v protocol=%q", dyn.Variant, dyn.Protocol)
	}
}

func TestConfigJSONMacRoundTrip(t *testing.T) {
	in := Config{
		Protocol:     mac.ProtoCSMA,
		MACParams:    mac.Params{MinBE: 2, MaxBE: 6},
		Nodes:        3,
		App:          AppStreaming,
		SampleRateHz: 205,
		Duration:     10 * sim.Second,
	}
	data, err := ConfigToJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ConfigFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Protocol != in.Protocol || out.MACParams != in.MACParams {
		t.Fatalf("round trip: protocol=%q params=%+v\nencoded: %s", out.Protocol, out.MACParams, data)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	in := Config{
		Variant:      mac.Static,
		Nodes:        5,
		Cycle:        30 * sim.Millisecond,
		App:          AppStreaming,
		SampleRateHz: 205,
		Duration:     60 * sim.Second,
		Seed:         1,
		Burst:        &channel.BurstModel{PGoodToBad: 0.1, PBadToGood: 0.2, BERBad: 1e-3},
	}
	data, err := ConfigToJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ConfigFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Variant != in.Variant || out.Cycle != in.Cycle || out.App != in.App ||
		out.SampleRateHz != in.SampleRateHz || out.Duration != in.Duration {
		t.Fatalf("round trip: %+v", out)
	}
	if out.Burst == nil || *out.Burst != *in.Burst {
		t.Fatalf("burst round trip: %+v", out.Burst)
	}
}
