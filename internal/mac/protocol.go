package mac

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// Protocol names a MAC protocol of the closed set below: adding one means
// adding a constant and a case to every switch exhaustcap names. The two
// TDMA flavours keep the names the scenario schema has always used; the
// contention protocols extend the set.
//
//lint:exhaustive
type Protocol string

const (
	// ProtoStatic is the fixed-slot-count TDMA of Figure 2.
	ProtoStatic Protocol = "static"
	// ProtoDynamic is the run-time-growing TDMA of Figure 3.
	ProtoDynamic Protocol = "dynamic"
	// ProtoCSMA is slotted CSMA/CA: beacon-synchronised contention
	// access with binary exponential backoff and clear-channel
	// assessment against the shared medium.
	ProtoCSMA Protocol = "csma"
	// ProtoLPL is the preamble-sampling low-power-listening MAC (X-MAC
	// style): senders strobe short preambles until the duty-cycled
	// receiver wakes and truncates the train with an early ack.
	ProtoLPL Protocol = "lpl"
)

// Protocol maps a TDMA variant onto its protocol name.
func (v Variant) Protocol() Protocol {
	if v == Dynamic {
		return ProtoDynamic
	}
	return ProtoStatic
}

// Capabilities declares which invariant families apply to a protocol,
// so the audit layer registers slot laws only for slotted MACs and
// channel-access laws only for contention MACs.
type Capabilities struct {
	// Slotted MACs arbitrate airtime through a base-station slot table;
	// the slot-containment and slot-table laws apply.
	Slotted bool
	// Contention MACs arbitrate through backoff and channel sensing;
	// the channel-access consistency laws apply instead.
	Contention bool
	// Beacons reports whether the base station regulates timing with
	// periodic beacons (false only for preamble-sampling MACs).
	Beacons bool
}

// Params carries the protocol-specific tuning knobs. The zero value
// selects every protocol's documented defaults; each field belongs to
// the protocol named in its comment and must be zero for the others
// (Descriptor.Validate enforces the ranges).
type Params struct {
	// MinBE/MaxBE bound the CSMA/CA backoff exponent: each attempt
	// draws a delay uniform in [0, 2^BE-1] backoff units, and BE climbs
	// from MinBE towards MaxBE on every busy channel assessment.
	MinBE int
	MaxBE int
	// MaxBackoffs is how many busy CCA verdicts a single CSMA
	// transmission attempt tolerates before giving up for the cycle.
	MaxBackoffs int
	// CheckInterval is the LPL receiver's preamble-sampling period: the
	// base station wakes this often to probe the channel for strobes.
	CheckInterval sim.Time
}

// CSMA parameter bounds. BE is capped at 8 so the largest backoff draw
// (2^8-1 units) still fits comfortably inside a beacon cycle.
const (
	maxBackoffExponent = 8
	maxCSMABackoffs    = 10
)

// LPL check-interval ceiling: sampling less than once a second starves
// every sender (a strobe train must span a whole interval).
const maxLPLCheckInterval = sim.Second

// NodeMAC is the full node-side strategy interface: the application's
// Mac view plus the lifecycle, degradation and audit hooks the node and
// core layers drive. Every protocol implements it.
type NodeMAC interface {
	Mac
	// Crash models a node power loss: all protocol state is forgotten
	// and every armed event is invalidated (see NodeMac.Crash).
	Crash()
	// SetSlotStretch skips every k-th transmission opportunity — the
	// duty-cycle-stretch rung of the degradation ladder. k < 2 disables.
	SetSlotStretch(k int)
	// EnterBeaconOnly drops to the final degradation rung: no data
	// path, minimal listening. Sticky, like the battery charge it
	// mirrors.
	EnterBeaconOnly()
	// ResetAccounting zeroes statistics and loss accumulators
	// (post-warmup).
	ResetAccounting()
	// JoinedTime reports cumulative association time since the last
	// reset — the availability numerator.
	JoinedTime() sim.Time
	// ControlRxTime/ControlTxTime/JoinIdleTime split the protocol
	// overhead for the paper's loss categories.
	ControlRxTime() sim.Time
	ControlTxTime() sim.Time
	JoinIdleTime() sim.Time
	// Generation reports the crash generation counter (monotonic).
	Generation() uint64
	// AuditFrame checks the universal frame-conservation laws.
	AuditFrame() []string
	// AuditProtocol checks the protocol-specific laws: slot containment
	// for slotted MACs, channel-access consistency for contention MACs.
	AuditProtocol() []string
}

// BSMAC is the base-station-side strategy interface.
type BSMAC interface {
	// Start begins regulation (beacon cycle or sampling schedule).
	Start()
	// Stats returns a copy of the counters.
	Stats() BSStats
	// OnData registers a callback for each accepted data frame, run
	// once its forwarding task ran. The record's payload is valid only
	// during the callback. Without a sink the forwarding task has no
	// callback, and the base station keeps no copy of the payload.
	OnData(fn func(rec RxRecord))
	// CycleLength reports the regulation period (TDMA cycle, or the LPL
	// check interval).
	CycleLength() sim.Time
	// Nodes reports the associated node IDs in assignment order.
	Nodes() []uint8
	// ResetAccounting zeroes statistics.
	ResetAccounting()
	// AuditTable checks the association bookkeeping: slot-table
	// bijections for slotted MACs, membership consistency for
	// contention MACs.
	AuditTable() []string
}

// Descriptor describes one protocol of the zoo: its capability flags and
// its parameter validation.
type Descriptor struct {
	Name Protocol
	Caps Capabilities
	// Validate rejects out-of-range or foreign Params for this
	// protocol. The zero Params is always valid.
	Validate func(p Params) error
}

// Lookup resolves a protocol name.
func Lookup(name Protocol) (Descriptor, bool) {
	d := Descriptor{Name: name}
	switch name {
	case ProtoStatic, ProtoDynamic:
		d.Caps, d.Validate = Capabilities{Slotted: true, Beacons: true}, validateTDMAParams
	case ProtoCSMA:
		d.Caps, d.Validate = Capabilities{Contention: true, Beacons: true}, validateCSMAParams
	case ProtoLPL:
		d.Caps, d.Validate = Capabilities{Contention: true}, validateLPLParams
	}
	return d, d.Validate != nil
}

// Protocols lists the protocol names, sorted.
func Protocols() []Protocol { return []Protocol{ProtoCSMA, ProtoDynamic, ProtoLPL, ProtoStatic} }

// NewNode builds the node-side MAC for cfg's protocol. cfg.Params must
// have passed the protocol's Validate, as core.Config.Validate ensures.
func NewNode(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) NodeMAC {
	switch cfg.Protocol {
	case ProtoStatic, ProtoDynamic:
		return NewNodeMac(k, cfg, sched, r, ledger, tracer)
	case ProtoCSMA:
		return NewCSMANode(k, cfg, sched, r, ledger, tracer)
	case ProtoLPL:
		return NewLPLNode(k, cfg, sched, r, ledger, tracer)
	}
	panic(fmt.Sprintf("mac: unknown protocol %q", cfg.Protocol))
}

// NewBaseMAC builds the base-station MAC for cfg's protocol. cfg.Params
// must have passed the protocol's Validate.
func NewBaseMAC(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) BSMAC {
	switch cfg.Protocol {
	case ProtoStatic, ProtoDynamic:
		return NewBS(k, cfg, sched, r, ledger, tracer)
	case ProtoCSMA:
		return NewCSMABS(k, cfg, sched, r, ledger, tracer)
	case ProtoLPL:
		return NewLPLBS(k, cfg, sched, r, ledger, tracer)
	}
	panic(fmt.Sprintf("mac: unknown protocol %q", cfg.Protocol))
}

// validateTDMAParams rejects any contention tuning on a TDMA protocol:
// the slotted variants have no backoff or sampling knobs.
func validateTDMAParams(p Params) error {
	if p != (Params{}) {
		return fmt.Errorf("mac: TDMA protocols take no backoff/LPL parameters")
	}
	return nil
}

// validateCSMAParams bounds the backoff tuning. Zero fields select the
// defaults; MinBE above MaxBE, exponents past the cap, or LPL knobs are
// rejected.
func validateCSMAParams(p Params) error {
	if p.CheckInterval != 0 {
		return fmt.Errorf("mac: checkInterval is an LPL parameter, not a CSMA one")
	}
	if p.MinBE < 0 || p.MaxBE < 0 || p.MinBE > maxBackoffExponent || p.MaxBE > maxBackoffExponent {
		return fmt.Errorf("mac: backoff exponents %d/%d outside 0..%d", p.MinBE, p.MaxBE, maxBackoffExponent)
	}
	if d := csmaDefaults(p); d.MinBE > d.MaxBE {
		return fmt.Errorf("mac: MinBE %d above MaxBE %d", d.MinBE, d.MaxBE)
	}
	if p.MaxBackoffs < 0 || p.MaxBackoffs > maxCSMABackoffs {
		return fmt.Errorf("mac: MaxBackoffs %d outside 0..%d", p.MaxBackoffs, maxCSMABackoffs)
	}
	return nil
}

// validateLPLParams bounds the sampling cadence and rejects CSMA knobs.
func validateLPLParams(p Params) error {
	if p.MinBE != 0 || p.MaxBE != 0 || p.MaxBackoffs != 0 {
		return fmt.Errorf("mac: backoff exponents are CSMA parameters, not LPL ones")
	}
	// An interval shorter than the probe window only skips probes.
	bs := platform.BaseStation()
	probe := lplProbeWindow(&bs)
	if p.CheckInterval != 0 && (p.CheckInterval < probe || p.CheckInterval > maxLPLCheckInterval) {
		return fmt.Errorf("mac: LPL check interval %v outside %v (one probe window) to %v",
			p.CheckInterval, probe, maxLPLCheckInterval)
	}
	return nil
}

// csmaDefaults fills the zero backoff fields of p with the defaults.
func csmaDefaults(p Params) Params {
	if p.MinBE == 0 {
		p.MinBE = defaultMinBE
	}
	if p.MaxBE == 0 {
		p.MaxBE = defaultMaxBE
	}
	if p.MaxBackoffs == 0 {
		p.MaxBackoffs = defaultMaxBackoffs
	}
	return p
}

// lplCheckInterval resolves p's sampling period: zero selects
// DefaultLPLCheckInterval.
func lplCheckInterval(p Params) sim.Time {
	if p.CheckInterval == 0 {
		return DefaultLPLCheckInterval
	}
	return p.CheckInterval
}
