// Package audit is the simulator's runtime invariant engine: the
// conservation laws the energy-estimation model rests on — ledger vs
// battery debits, MAC frame conservation, TDMA slot exclusivity, kernel
// time monotonicity, event-pool accounting — registered as named checks
// and evaluated on an in-sim cadence while the run executes, plus once
// at the end.
//
// The engine is strictly an observer. Checks read model state and
// report; they never mutate it, never touch the kernel's random stream,
// and schedule only their own tick events. Two runs of one (config,
// seed) pair therefore produce byte-identical results whether audits
// are on or off — only the kernel's executed-event count and the audit
// summary itself differ.
//
// Violations are collected as structured rows (instant, invariant,
// subject, detail) so the chaos soak harness (cmd/soak) can shrink a
// failing scenario around the first law that broke.
package audit

import (
	"fmt"

	"repro/internal/sim"
)

// Defaults for Config's zero fields.
const (
	// DefaultEvery is the check cadence when Config.Every is zero. It is
	// a few TDMA cycles: frequent enough to bracket a violation near its
	// cause, cheap enough to disappear next to the model's own events.
	DefaultEvery = 250 * sim.Millisecond
	// DefaultLimit caps recorded violations when Config.Limit is zero. A
	// broken law usually fires on every subsequent tick; the cap keeps a
	// long soak run's memory bounded while the count keeps climbing.
	DefaultLimit = 1000
)

// Config enables and paces the engine. The zero value selects the
// documented defaults; a negative Every or Limit is rejected by the
// scenario loader and core.Config.Validate before it reaches New.
type Config struct {
	// Every is the in-sim interval between invariant sweeps.
	Every sim.Time `json:"checkInterval,omitempty"`
	// Limit caps the violations recorded verbatim; past it only the
	// Dropped counter grows.
	Limit int `json:"limit,omitempty"`
}

// Violation is one failed invariant check.
type Violation struct {
	// At is the simulation instant of the failing sweep.
	At sim.Time `json:"at"`
	// Invariant names the registered law, e.g. "frame-conservation".
	Invariant string `json:"invariant"`
	// Subject is the component checked, e.g. "node2" or "kernel".
	Subject string `json:"subject"`
	// Detail is the human-readable mismatch.
	Detail string `json:"detail"`
}

// String renders the violation for logs and error messages.
func (v Violation) String() string {
	return fmt.Sprintf("t=%v %s[%s]: %s", v.At, v.Invariant, v.Subject, v.Detail)
}

// Summary is the engine's end-of-run report, carried in core.Results.
type Summary struct {
	// Checks counts individual invariant evaluations across all sweeps.
	Checks uint64 `json:"checks"`
	// Violations are the recorded failures, in detection order.
	Violations []Violation `json:"violations,omitempty"`
	// Dropped counts violations past the Limit cap.
	Dropped uint64 `json:"dropped,omitempty"`
}

// Failed reports whether any invariant fired.
func (s *Summary) Failed() bool {
	return s != nil && (len(s.Violations) > 0 || s.Dropped > 0)
}

// Check evaluates one invariant at instant now and returns a detail
// string per violation found (nil when the law holds). Checks must be
// pure observers: no model mutation, no kernel randomness.
type Check func(now sim.Time) []string

// invariant is one registered law.
type invariant struct {
	name      string
	subject   string
	finalOnly bool
	check     Check
}

// Engine sweeps the registered invariants on the configured cadence.
// Build with New, Register every law, then Start before the run.
type Engine struct {
	k      *sim.Kernel
	cfg    Config
	invs   []invariant
	sum    Summary
	onTick sim.Handler // tick, bound once so re-arming allocates nothing
}

// New builds an engine over the run's kernel, normalising cfg's zero
// fields to the defaults.
func New(k *sim.Kernel, cfg Config) *Engine {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.Limit <= 0 {
		cfg.Limit = DefaultLimit
	}
	e := &Engine{k: k, cfg: cfg}
	e.onTick = e.tick
	return e
}

// Register adds a law evaluated on every sweep. Registration order is
// evaluation order, so violation rows are deterministic.
func (e *Engine) Register(name, subject string, check Check) {
	e.invs = append(e.invs, invariant{name: name, subject: subject, check: check})
}

// RegisterFinal adds a law evaluated only by Finish — for end-of-run
// accounting like event-pool leak checks, where mid-run state is
// legitimately unbalanced.
func (e *Engine) RegisterFinal(name, subject string, check Check) {
	e.invs = append(e.invs, invariant{name: name, subject: subject, finalOnly: true, check: check})
}

// Start arms the periodic sweep. The first tick fires one interval from
// the current instant; each tick re-arms the next, so the cadence holds
// for the whole run without the engine knowing the horizon.
func (e *Engine) Start() {
	e.k.Schedule(e.cfg.Every, e.onTick)
}

func (e *Engine) tick(k *sim.Kernel) {
	e.sweep(k.Now(), false)
	e.k.Schedule(e.cfg.Every, e.onTick)
}

// Finish runs one last sweep — including the final-only invariants — at
// instant now and returns the summary. The pending tick event simply
// never fires; the caller stops driving the kernel.
func (e *Engine) Finish(now sim.Time) *Summary {
	e.sweep(now, true)
	s := e.sum
	return &s
}

// sweep evaluates every applicable invariant once.
func (e *Engine) sweep(now sim.Time, final bool) {
	for _, inv := range e.invs {
		if inv.finalOnly && !final {
			continue
		}
		e.sum.Checks++
		for _, detail := range inv.check(now) {
			e.record(Violation{At: now, Invariant: inv.name, Subject: inv.subject, Detail: detail})
		}
	}
}

func (e *Engine) record(v Violation) {
	if len(e.sum.Violations) >= e.cfg.Limit {
		e.sum.Dropped++
		return
	}
	e.sum.Violations = append(e.sum.Violations, v)
}

// TimeMonotonic returns a Check asserting the kernel's clock never runs
// backwards between sweeps (and never goes negative). The closure holds
// the last observed instant, so register the returned Check exactly
// once per engine.
func TimeMonotonic(k *sim.Kernel) Check {
	var last sim.Time
	return func(now sim.Time) []string {
		var v []string
		if got := k.Now(); got < last {
			v = append(v, fmt.Sprintf("kernel time ran backwards: %v after %v", got, last))
		} else {
			last = got
		}
		if now < 0 {
			v = append(v, fmt.Sprintf("negative sweep instant %v", now))
		}
		return v
	}
}

// Monotonic returns a Check asserting that sample() never decreases —
// the generation-counter law for crash/reboot cycles, and the
// dead-stays-dead law for batteries (booleans encoded as 0/1). The
// closure holds the last sample, so register each returned Check once.
func Monotonic(what string, sample func() uint64) Check {
	var last uint64
	return func(now sim.Time) []string {
		got := sample()
		if got < last {
			return []string{fmt.Sprintf("%s went backwards: %d after %d", what, got, last)}
		}
		last = got
		return nil
	}
}
