// Package node composes the full sensor-node stack of Figure 1 — ASIC
// driver, radio driver, TinyOS kernel, MAC, application — and the base
// station, wiring each hardware model to its energy meter on the node's
// ledger.
package node

import (
	"strconv"

	"repro/internal/app"
	"repro/internal/asic"
	"repro/internal/battery"
	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// batteryPollInterval is how often a battery-powered node settles its
// ledger into the coulomb counter. It bounds the detection latency of
// every watermark crossing; the debit amounts themselves are exact
// regardless (the ledger integrates continuously).
const batteryPollInterval = 50 * sim.Millisecond

// Sensor is one wireless sensor node.
type Sensor struct {
	Name string
	ID   uint8

	Ledger   *energy.Ledger
	MCU      *mcu.MCU
	Sched    *tinyos.Sched
	Radio    *radio.Radio
	Frontend *asic.Frontend
	Mac      mac.NodeMAC
	App      app.App
	// Bat is the node's live battery; nil when the scenario runs the
	// historical always-powered model.
	Bat *battery.State

	k          *sim.Kernel
	tracer     *metrics.Recorder
	trace      metrics.NodeID     // Name's ID in tracer
	cost       platform.CostModel // the application's cycle costs
	onBrownout func()
	poll       sim.Handler // pollBattery, bound once with a battery
}

// sensorOpts collects the optional knobs of a sensor build.
type sensorOpts struct {
	name      string
	battery   *battery.Battery
	brownoutV float64
	degrade   *battery.DegradePolicy
}

// Option customises a sensor build.
type Option func(*sensorOpts)

// WithName overrides the node's medium identifier (needed when several
// BANs share one channel and the default "node<id>" names would clash).
func WithName(name string) Option {
	return func(o *sensorOpts) { o.name = name }
}

// WithBattery powers the node from its own instance of cell: the energy
// ledger is debited into a live coulomb counter as the run progresses,
// the node browns out (crashes for good) when the terminal voltage
// falls below brownoutV (0 = the cell's default cutoff), and policy —
// which may be nil — degrades the node gracefully on the way down.
func WithBattery(cell battery.Battery, brownoutV float64, policy *battery.DegradePolicy) Option {
	return func(o *sensorOpts) {
		c := cell
		o.battery = &c
		o.brownoutV = brownoutV
		o.degrade = policy
	}
}

// NewSensor builds the hardware/OS/MAC stack for node cfg.NodeID on the
// shared medium, on cfg.Profile's hardware, running cfg's MAC. Attach an
// application with AttachApp before Start.
func NewSensor(k *sim.Kernel, ch *channel.Channel, tracer *metrics.Recorder,
	cfg mac.NodeConfig, opts ...Option) *Sensor {
	o := sensorOpts{name: "node" + strconv.Itoa(int(cfg.NodeID))}
	for _, opt := range opts {
		opt(&o)
	}
	prof := cfg.Profile
	ledger := energy.NewLedger()
	m := mcu.New(k, prof.MCU, ledger)
	sched := tinyos.NewSched(k, m, 0)
	r := radio.New(k, o.name, prof.Radio, ch, sched, ledger, tracer)
	fe := asic.New(k, prof.ASIC, ledger)
	nm := mac.NewNode(k, cfg, sched, r, ledger, tracer)
	s := &Sensor{
		Name:     o.name,
		ID:       cfg.NodeID,
		Ledger:   ledger,
		MCU:      m,
		Sched:    sched,
		Radio:    r,
		Frontend: fe,
		Mac:      nm,
		App:      nil,
		k:        k,
		tracer:   tracer,
		trace:    tracer.ID(o.name),
		cost:     prof.Cost,
	}
	if o.battery != nil {
		s.Bat = battery.NewState(*o.battery, o.brownoutV, o.degrade, k.Now())
		s.poll = s.pollBattery
	}
	return s
}

// AttachApp installs the application the factory builds over this
// node's facilities.
func (s *Sensor) AttachApp(build func(env app.Env) app.App) {
	if s.App != nil {
		panic("node: application already attached")
	}
	s.App = build(app.Env{
		Sched:    s.Sched,
		Frontend: s.Frontend,
		Mac:      s.Mac,
		Cost:     s.cost,
		Tracer:   s.tracer,
		NodeName: s.Name,
	})
}

// OnBrownout registers a callback fired once when the node's battery
// browns out (after the crash has been executed). The core layer uses it
// to record the emergent fault in the injector's outcome list.
func (s *Sensor) OnBrownout(fn func()) { s.onBrownout = fn }

// Start powers the node on: the MAC begins its join procedure and the
// application starts once a slot is granted.
func (s *Sensor) Start() {
	if s.App == nil {
		panic("node: Start before AttachApp")
	}
	s.Mac.OnJoined(func() { s.App.Start() })
	s.Mac.Start()
	if s.Bat != nil {
		s.k.Schedule(batteryPollInterval, s.poll)
	}
}

// pollBattery settles the ledger into the coulomb counter on a fixed
// cadence. The chain survives injected crash/reboot cycles (a powered-
// off node draws ~nothing, so the debits are near-zero) and ends only
// when the battery browns out.
func (s *Sensor) pollBattery(*sim.Kernel) {
	if s.Bat == nil || s.Bat.Dead() {
		return
	}
	if s.settleBattery(s.k.Now()) {
		return // browned out: the node is gone for the rest of the run
	}
	s.k.Schedule(batteryPollInterval, s.poll)
}

// settleBattery flushes the ledger, debits the battery and applies any
// degradation transition. It reports whether the node just browned out.
func (s *Sensor) settleBattery(now sim.Time) bool {
	s.Ledger.Flush(now)
	tr := s.Bat.Debit(now, s.Ledger.TotalJ())
	if tr.To == tr.From {
		return false
	}
	if tr.From > battery.LevelNormal && tr.TimeInFrom > 0 {
		s.tracer.Observe(s.trace, metrics.HistDegraded, tr.TimeInFrom)
	}
	if tr.Died {
		metrics.Record2(s.tracer, now, s.trace, metrics.KindBrownout, "v=%.2f soc=%.1f%%",
			s.Bat.VoltageV(), s.Bat.SOC()*100)
		s.Crash()
		if s.onBrownout != nil {
			s.onBrownout()
		}
		return true
	}
	p := s.Bat.Policy()
	for lvl := tr.From + 1; lvl <= tr.To; lvl++ {
		switch lvl {
		case battery.LevelStretch:
			s.Mac.SetSlotStretch(p.StretchEvery)
		case battery.LevelDownshift:
			s.App.Downshift(p.DownshiftFactor)
		case battery.LevelBeaconOnly:
			if s.App != nil {
				s.App.Stop()
			}
			s.Mac.EnterBeaconOnly()
		case battery.LevelNormal, battery.LevelDead:
			// Unreachable by construction: the walk starts at
			// tr.From+1 >= LevelStretch, and a transition into
			// LevelDead sets tr.Died, which returned above. Reaching
			// either is a battery state-machine bug.
			panic("node: degradation walk reached " + lvl.String() + " without a brownout")
		}
		metrics.Record2(s.tracer, now, s.trace, metrics.KindDegrade, "level=%s soc=%.1f%%",
			lvl, s.Bat.SOC()*100)
	}
	return false
}

// FinalizeBattery settles the outstanding ledger draw, closes the open
// degraded-level interval in the histogram and snapshots the battery
// report (nil when the node has no battery).
func (s *Sensor) FinalizeBattery(now sim.Time) *battery.Report {
	if s.Bat == nil {
		return nil
	}
	if !s.Bat.Dead() {
		s.settleBattery(now)
	}
	if lvl := s.Bat.Level(); lvl > battery.LevelNormal && lvl < battery.LevelDead {
		if open := now - s.Bat.LevelSince(); open > 0 {
			s.tracer.Observe(s.trace, metrics.HistDegraded, open)
		}
	}
	rep := s.Bat.Snapshot(now)
	return &rep
}

// Crash models a sudden power loss: the application stops sampling, the
// MAC forgets its slot and queue, any frame mid-burst is truncated on the
// air, and every queued computation is abandoned — with the OS task
// queue emptied to match. Statistics counters survive (they are the
// experimenter's instruments, not node state); the energy meters record
// the outage as zero draw.
func (s *Sensor) Crash() {
	if s.App != nil {
		s.App.Stop()
	}
	s.Frontend.Stop()
	s.Mac.Crash()
	s.Radio.Crash()
	s.MCU.Crash()
	s.Sched.Crash()
}

// Reboot cold-boots the node after a Crash: the MCU comes back up and the
// MAC restarts its join procedure from beacon search, exactly like the
// initial power-on. The OnJoined hooks registered at Start still stand,
// so the application resumes once a slot is granted again.
func (s *Sensor) Reboot() {
	s.MCU.Reboot()
	s.Mac.Start()
}

// ResetAccounting zeroes every energy and statistics accumulator at
// instant now, so a measurement window excludes the join transient.
func (s *Sensor) ResetAccounting(now sim.Time) {
	s.Ledger.Flush(now)
	if s.Bat != nil {
		// Settle the pre-reset draw into the battery (warmup energy is
		// real charge spent), then realign the diff baseline with the
		// ledger's restart.
		if !s.Bat.Dead() {
			s.settleBattery(now)
		}
		s.Bat.NoteLedgerReset()
	}
	s.Ledger.Reset(now)
	s.MCU.ResetAccounting()
	s.Radio.ResetAccounting()
	s.Mac.ResetAccounting()
	s.App.ResetCounters()
}

// FinalizeEnergy flushes the meters at instant now, attributes the
// residual idle-listening energy (receiver-on time outside control
// windows and frames) and snapshots the report.
func (s *Sensor) FinalizeEnergy(now sim.Time) energy.Report {
	s.Ledger.Flush(now)
	rxTotal := s.Ledger.Meter(platform.ComponentRadio).TimeIn(platform.StateRadioRX)
	residual := rxTotal - s.Mac.ControlRxTime() - s.Mac.JoinIdleTime()
	if residual > 0 {
		s.Ledger.AttributeLoss(energy.LossIdleListening,
			s.Radio.RxPowerW()*residual.Seconds())
	}
	return s.Ledger.Report()
}

// Base is the base station node (radio + MCU only; it feeds a PC).
type Base struct {
	Name    string
	Profile platform.Profile

	Ledger *energy.Ledger
	MCU    *mcu.MCU
	Sched  *tinyos.Sched
	Radio  *radio.Radio
	BS     mac.BSMAC
}

// BaseOption customises a base-station build.
type BaseOption func(name *string)

// WithBaseName overrides the base station's medium identifier (needed
// when several BANs share one channel and the default "bs" would clash).
func WithBaseName(name string) BaseOption {
	return func(n *string) { *n = name }
}

// NewBase builds the base-station stack running cfg's MAC. The hardware
// is always platform.BaseStation(), whatever cfg.Profile says.
func NewBase(k *sim.Kernel, ch *channel.Channel, tracer *metrics.Recorder,
	cfg mac.BSConfig, opts ...BaseOption) *Base {
	b := &Base{Name: "bs", Profile: platform.BaseStation(), Ledger: energy.NewLedger()}
	for _, opt := range opts {
		opt(&b.Name)
	}
	cfg.Profile = &b.Profile
	b.MCU = mcu.New(k, b.Profile.MCU, b.Ledger)
	b.Sched = tinyos.NewSched(k, b.MCU, 0)
	b.Radio = radio.New(k, b.Name, b.Profile.Radio, ch, b.Sched, b.Ledger, tracer)
	b.BS = mac.NewBaseMAC(k, cfg, b.Sched, b.Radio, b.Ledger, tracer)
	return b
}

// Start begins the beacon cycle.
func (b *Base) Start() { b.BS.Start() }

// ResetAccounting zeroes the base station's accumulators.
func (b *Base) ResetAccounting(now sim.Time) {
	b.Ledger.Flush(now)
	b.Ledger.Reset(now)
	b.MCU.ResetAccounting()
	b.Radio.ResetAccounting()
	b.BS.ResetAccounting()
}

// FinalizeEnergy flushes and snapshots the base station's ledger.
func (b *Base) FinalizeEnergy(now sim.Time) energy.Report {
	b.Ledger.Flush(now)
	return b.Ledger.Report()
}
