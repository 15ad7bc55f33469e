package mac

import (
	"fmt"
	"sort"

	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// Protocol names a registered MAC protocol. The two TDMA flavours keep
// the names the scenario schema has always used; the contention
// protocols extend the set.
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
// core layers drive. Every registered protocol implements it.
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
	// during the callback.
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

// Descriptor registers one protocol with the zoo: its capability flags,
// parameter validation, and the two factories.
type Descriptor struct {
	Name Protocol
	Caps Capabilities
	// Validate rejects out-of-range or foreign Params for this
	// protocol. The zero Params is always valid.
	Validate func(p Params) error
	// NewNode and NewBS build the two sides over the shared stack.
	NewNode func(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
		ledger *energy.Ledger, tracer *metrics.Recorder) NodeMAC
	NewBS func(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
		ledger *energy.Ledger, tracer *metrics.Recorder) BSMAC
}

var registry = map[Protocol]Descriptor{}

// register adds a protocol at package init; duplicate names are a
// programming error.
func register(d Descriptor) {
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("mac: protocol %q registered twice", d.Name))
	}
	registry[d.Name] = d
}

// Lookup resolves a protocol name.
func Lookup(name Protocol) (Descriptor, bool) {
	d, ok := registry[name]
	return d, ok
}

// Protocols lists the registered protocol names, sorted.
func Protocols() []Protocol {
	out := make([]Protocol, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewNode builds the node-side MAC for cfg's protocol via the registry.
func NewNode(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) NodeMAC {
	d, ok := Lookup(cfg.Protocol)
	if !ok {
		panic(fmt.Sprintf("mac: unknown protocol %q", cfg.Protocol))
	}
	return d.NewNode(k, cfg, sched, r, ledger, tracer)
}

// NewBaseMAC builds the base-station MAC for cfg's protocol via the
// registry.
func NewBaseMAC(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder) BSMAC {
	d, ok := Lookup(cfg.Protocol)
	if !ok {
		panic(fmt.Sprintf("mac: unknown protocol %q", cfg.Protocol))
	}
	return d.NewBS(k, cfg, sched, r, ledger, tracer)
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
	if p.MinBE < 0 || p.MaxBE < 0 || p.MaxBackoffs < 0 {
		return fmt.Errorf("mac: negative CSMA backoff parameter")
	}
	if p.MinBE > maxBackoffExponent || p.MaxBE > maxBackoffExponent {
		return fmt.Errorf("mac: backoff exponent beyond %d", maxBackoffExponent)
	}
	minBE, maxBE := p.MinBE, p.MaxBE
	if minBE == 0 {
		minBE = defaultMinBE
	}
	if maxBE == 0 {
		maxBE = defaultMaxBE
	}
	if minBE > maxBE {
		return fmt.Errorf("mac: MinBE %d above MaxBE %d", minBE, maxBE)
	}
	if p.MaxBackoffs > maxCSMABackoffs {
		return fmt.Errorf("mac: MaxBackoffs %d beyond %d", p.MaxBackoffs, maxCSMABackoffs)
	}
	return nil
}

// validateLPLParams bounds the sampling cadence and rejects CSMA knobs.
func validateLPLParams(p Params) error {
	if p.MinBE != 0 || p.MaxBE != 0 || p.MaxBackoffs != 0 {
		return fmt.Errorf("mac: backoff exponents are CSMA parameters, not LPL ones")
	}
	if p.CheckInterval < 0 {
		return fmt.Errorf("mac: negative LPL check interval %v", p.CheckInterval)
	}
	if p.CheckInterval > maxLPLCheckInterval {
		return fmt.Errorf("mac: LPL check interval %v beyond %v", p.CheckInterval, maxLPLCheckInterval)
	}
	return nil
}

func init() {
	newTDMANode := func(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
		ledger *energy.Ledger, tracer *metrics.Recorder) NodeMAC {
		return NewNodeMac(k, cfg, sched, r, ledger, tracer)
	}
	newTDMABS := func(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
		ledger *energy.Ledger, tracer *metrics.Recorder) BSMAC {
		return NewBS(k, cfg, sched, r, ledger, tracer)
	}
	for _, name := range []Protocol{ProtoStatic, ProtoDynamic} {
		register(Descriptor{
			Name:     name,
			Caps:     Capabilities{Slotted: true, Beacons: true},
			Validate: validateTDMAParams,
			NewNode:  newTDMANode,
			NewBS:    newTDMABS,
		})
	}
	register(Descriptor{
		Name:     ProtoCSMA,
		Caps:     Capabilities{Contention: true, Beacons: true},
		Validate: validateCSMAParams,
		NewNode: func(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
			ledger *energy.Ledger, tracer *metrics.Recorder) NodeMAC {
			return NewCSMANode(k, cfg, sched, r, ledger, tracer)
		},
		NewBS: func(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
			ledger *energy.Ledger, tracer *metrics.Recorder) BSMAC {
			return NewCSMABS(k, cfg, sched, r, ledger, tracer)
		},
	})
	register(Descriptor{
		Name:     ProtoLPL,
		Caps:     Capabilities{Contention: true},
		Validate: validateLPLParams,
		NewNode: func(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
			ledger *energy.Ledger, tracer *metrics.Recorder) NodeMAC {
			return NewLPLNode(k, cfg, sched, r, ledger, tracer)
		},
		NewBS: func(k *sim.Kernel, cfg BSConfig, sched *tinyos.Sched, r *radio.Radio,
			ledger *energy.Ledger, tracer *metrics.Recorder) BSMAC {
			return NewLPLBS(k, cfg, sched, r, ledger, tracer)
		},
	})
}

var (
	_ NodeMAC = (*NodeMac)(nil)
	_ BSMAC   = (*BS)(nil)
)
