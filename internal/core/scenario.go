package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/channel"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/sim"
)

// scenarioJSON is the on-disk scenario schema: a flat, readable form of
// Config with string enums and duration strings.
type scenarioJSON struct {
	Mac          macJSON                `json:"mac"`           // "static" | {"protocol":"csma",...}
	Nodes        int                    `json:"nodes"`         //
	Cycle        sim.Time               `json:"cycle"`         // "30ms" (static only)
	App          string                 `json:"app"`           // "streaming" | "rpeak" | "hrv" | "eeg"
	SampleRateHz float64                `json:"sampleRateHz"`  //
	HeartRateBPM float64                `json:"heartRateBPM"`  //
	Duration     sim.Time               `json:"duration"`      // "60s"
	Warmup       sim.Time               `json:"warmup"`        // "3s" (optional)
	Seed         int64                  `json:"seed"`          //
	BER          float64                `json:"ber"`           //
	Burst        *channel.BurstModel    `json:"burst"`         //
	DriftPPM     float64                `json:"clockDriftPPM"` //
	StartStagger sim.Time               `json:"startStagger"`  //
	Faults       []fault.Fault          `json:"faults,omitempty"`
	SlotReclaim  int                    `json:"slotReclaimCycles,omitempty"`
	TraceLimit   int                    `json:"traceLimit,omitempty"`    // retained event ring size (0 = no ring; counters stay exact)
	Metrics      bool                   `json:"metrics,omitempty"`       // collect the observability snapshot
	Battery      *batteryJSON           `json:"battery,omitempty"`       // live cell per node
	BrownoutV    float64                `json:"brownoutV,omitempty"`     // supply cutoff (0 = cell default)
	Degrade      *battery.DegradePolicy `json:"degradePolicy,omitempty"` // low-battery watermarks
	Scheduler    string                 `json:"scheduler,omitempty"`     // "wheel" (default) | "heap"
	MaxEvents    uint64                 `json:"maxEvents,omitempty"`     // kernel event budget (0 = unlimited)
	Audit        *auditJSON             `json:"audit,omitempty"`         // runtime invariant audits
}

// macJSON selects the MAC protocol. The historical form is a bare
// string naming the protocol; the object form adds the protocol's
// tuning knobs ({"protocol":"csma","minBE":2,...} or
// {"protocol":"lpl","checkInterval":"50ms"}). Both forms decode into
// the same value, and the encoder emits the bare string whenever every
// knob is at its default.
type macJSON struct {
	Protocol      string   `json:"protocol"`
	MinBE         int      `json:"minBE,omitempty"`
	MaxBE         int      `json:"maxBE,omitempty"`
	MaxBackoffs   int      `json:"maxBackoffs,omitempty"`
	CheckInterval sim.Time `json:"checkInterval,omitempty"`
}

func (m *macJSON) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*m = macJSON{Protocol: s}
		return nil
	}
	// Alias sheds the method set so the object form decodes without
	// recursing into this unmarshaller.
	type alias macJSON
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*m = macJSON(a)
	return nil
}

func (m macJSON) MarshalJSON() ([]byte, error) {
	if m.MinBE == 0 && m.MaxBE == 0 && m.MaxBackoffs == 0 && m.CheckInterval == 0 {
		return json.Marshal(m.Protocol)
	}
	type alias macJSON
	return json.Marshal(alias(m))
}

// params converts the decoded knobs into the MAC layer's Params.
func (m macJSON) params() mac.Params {
	return mac.Params{
		MinBE:         m.MinBE,
		MaxBE:         m.MaxBE,
		MaxBackoffs:   m.MaxBackoffs,
		CheckInterval: m.CheckInterval,
	}
}

// auditJSON enables the runtime invariant-audit engine for a scenario.
type auditJSON struct {
	// CheckInterval is the in-simulation sweep cadence as a duration
	// string; omitted selects the engine default. Must be positive when
	// present — a zero or negative cadence would stall the sweep loop.
	CheckInterval *sim.Time `json:"checkInterval,omitempty"`
	// Limit caps recorded violation rows (0 = engine default).
	Limit int `json:"limit,omitempty"`
}

// batteryJSON names a cell either by preset ("cr2032" | "lipo160") or by
// explicit rating; explicit fields override the preset's, and
// capacityScale multiplies the capacity afterwards (lifetime scenarios
// shrink a coin cell so deaths land inside a simulable window).
type batteryJSON struct {
	Cell          string  `json:"cell,omitempty"`
	CapacityMAh   float64 `json:"capacityMAh,omitempty"`
	VoltageV      float64 `json:"voltageV,omitempty"`
	Efficiency    float64 `json:"efficiency,omitempty"`
	CapacityScale float64 `json:"capacityScale,omitempty"`
}

// decodeBattery resolves a batteryJSON into a concrete cell.
func decodeBattery(bj *batteryJSON) (*battery.Battery, error) {
	var b battery.Battery
	switch bj.Cell {
	case "":
	case "cr2032":
		b = battery.CR2032()
	case "lipo160":
		b = battery.LiPo160()
	default:
		return nil, fmt.Errorf("core: unknown battery cell %q", bj.Cell)
	}
	if bj.CapacityMAh > 0 {
		b.CapacityMAh = bj.CapacityMAh
	}
	if bj.VoltageV > 0 {
		b.VoltageV = bj.VoltageV
	}
	if bj.Efficiency > 0 {
		b.Efficiency = bj.Efficiency
	}
	if bj.CapacityScale > 0 {
		b.CapacityMAh *= bj.CapacityScale
	}
	return &b, nil
}

// ConfigFromJSON parses a scenario description. Validation happens at
// Run; this only decodes the shape.
func ConfigFromJSON(data []byte) (Config, error) {
	var s scenarioJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return Config{}, fmt.Errorf("core: bad scenario: %w", err)
	}
	cfg := Config{
		Nodes:             s.Nodes,
		Cycle:             s.Cycle,
		App:               AppKind(s.App),
		SampleRateHz:      s.SampleRateHz,
		HeartRateBPM:      s.HeartRateBPM,
		Duration:          s.Duration,
		Warmup:            s.Warmup,
		Seed:              s.Seed,
		BER:               s.BER,
		Burst:             s.Burst,
		ClockDriftPPM:     s.DriftPPM,
		StartStagger:      s.StartStagger,
		Faults:            s.Faults,
		SlotReclaimCycles: s.SlotReclaim,
		TraceLimit:        s.TraceLimit,
		Metrics:           s.Metrics,
		Scheduler:         s.Scheduler,
		MaxEvents:         s.MaxEvents,
	}
	// Normalise an explicit empty list to nil so a decode/encode round
	// trip is value-identical (the encoder omits the field either way).
	if len(cfg.Faults) == 0 {
		cfg.Faults = nil
	}
	if s.Battery != nil {
		b, err := decodeBattery(s.Battery)
		if err != nil {
			return Config{}, err
		}
		cfg.Battery = b
	}
	cfg.BrownoutV = s.BrownoutV
	cfg.Degrade = s.Degrade
	if s.Audit != nil {
		ac := audit.Config{Limit: s.Audit.Limit}
		if iv := s.Audit.CheckInterval; iv != nil {
			if *iv <= 0 {
				return Config{}, fmt.Errorf("core: audit checkInterval %v must be positive", *iv)
			}
			ac.Every = *iv
		}
		cfg.Audit = &ac
	}
	proto := mac.Protocol(s.Mac.Protocol)
	if proto == "" {
		proto = mac.ProtoStatic
	}
	desc, ok := mac.Lookup(proto)
	if !ok {
		return Config{}, fmt.Errorf("core: unknown mac %q", s.Mac.Protocol)
	}
	cfg.MACParams = s.Mac.params()
	if err := desc.Validate(cfg.MACParams); err != nil {
		return Config{}, err
	}
	cfg.Protocol = proto
	// The Variant field mirrors the TDMA protocols for callers that still
	// read it; contention protocols leave it at its zero value.
	if proto == mac.ProtoDynamic {
		cfg.Variant = mac.Dynamic
	}
	return cfg, nil
}

// ConfigToJSON renders a Config back into the scenario schema.
func ConfigToJSON(cfg Config) ([]byte, error) {
	proto := cfg.Protocol
	if proto == "" {
		proto = cfg.Variant.Protocol()
	}
	s := scenarioJSON{
		Mac: macJSON{
			Protocol:      string(proto),
			MinBE:         cfg.MACParams.MinBE,
			MaxBE:         cfg.MACParams.MaxBE,
			MaxBackoffs:   cfg.MACParams.MaxBackoffs,
			CheckInterval: cfg.MACParams.CheckInterval,
		},
		Nodes:        cfg.Nodes,
		Cycle:        cfg.Cycle,
		App:          string(cfg.App),
		SampleRateHz: cfg.SampleRateHz,
		HeartRateBPM: cfg.HeartRateBPM,
		Duration:     cfg.Duration,
		Warmup:       cfg.Warmup,
		Seed:         cfg.Seed,
		BER:          cfg.BER,
		Burst:        cfg.Burst,
		DriftPPM:     cfg.ClockDriftPPM,
		StartStagger: cfg.StartStagger,
		Faults:       cfg.Faults,
		SlotReclaim:  cfg.SlotReclaimCycles,
		TraceLimit:   cfg.TraceLimit,
		Metrics:      cfg.Metrics,
		BrownoutV:    cfg.BrownoutV,
		Degrade:      cfg.Degrade,
		Scheduler:    cfg.Scheduler,
		MaxEvents:    cfg.MaxEvents,
	}
	if a := cfg.Audit; a != nil {
		aj := &auditJSON{Limit: a.Limit}
		if a.Every > 0 {
			iv := a.Every
			aj.CheckInterval = &iv
		}
		s.Audit = aj
	}
	if b := cfg.Battery; b != nil {
		// Emit the resolved rating only: presets and scale factors are
		// decode-time sugar, so decode(encode(decode(x))) is an identity.
		s.Battery = &batteryJSON{
			CapacityMAh: b.CapacityMAh,
			VoltageV:    b.VoltageV,
			Efficiency:  b.Efficiency,
		}
	}
	return json.MarshalIndent(s, "", "  ")
}
