// Package energy implements the per-component, per-state energy accounting
// at the core of the paper's estimation model.
//
// The model is the one stated in §4.1 of the paper: E = I·Vdd·t, where t is
// the residence time of a component in each of its power states. A Meter
// tracks one component's state machine against virtual time; a Ledger
// aggregates the meters of one node and additionally attributes radio
// energy to the loss categories the paper enumerates in §4.2 (collisions,
// idle listening, overhearing, control packet overhead).
package energy

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// State names one power state of a component ("active", "lpm", "rx", ...).
type State string

// Draw describes the electrical operating point of one state.
type Draw struct {
	CurrentA float64 // current drawn in this state, amperes
	VoltageV float64 // supply voltage in this state, volts
}

// Power reports the state's power draw in watts.
func (d Draw) Power() float64 { return d.CurrentA * d.VoltageV }

// Meter tracks the power-state residency of a single component. The meter
// integrates energy lazily: it records the instant of the last transition
// and charges the elapsed interval to the outgoing state when the next
// transition (or a Flush) occurs.
//
// States are held densely, sorted by name, so every sum over states
// runs in the sorted order. A component resolves each of its states to
// a Handle once, with Handle, and transitions through it on its hot
// path; Transition by name finds the state with a short scan.
//
// A meter can also hold one deferred transition (Defer): a state change
// due at a known instant that no event needs to mark, such as the
// microcontroller dropping back to sleep when its work runs out. The
// next transition applies it at its own instant first, as do Flush and
// Reset once that instant has passed.
type Meter struct {
	name    string
	states  []meterState // sorted by name
	cur     Handle       // the current state
	since   sim.Time
	started bool

	// deferred is the state of the held transition, noDefer when none;
	// deferAt is its instant.
	deferred Handle
	deferAt  sim.Time
}

// meterState is one of a meter's states: its name, its operating point
// and its accumulated residency.
type meterState struct {
	name   State
	draw   Draw
	timeIn sim.Time
}

// Handle is a meter's dense index of one of its states, resolved once
// with Meter.Handle.
type Handle int

// noDefer marks a meter that holds no deferred transition.
const noDefer Handle = -1

// NewMeter creates a meter for a component with the given state table.
// Call Start before the first transition.
func NewMeter(name string, draws map[State]Draw) *Meter {
	m := &Meter{}
	m.init(name, draws, make([]meterState, 0, len(draws)))
	return m
}

// init builds the meter in place over states, an empty slice with room
// for the state table.
func (m *Meter) init(name string, draws map[State]Draw, states []meterState) {
	*m = Meter{name: name, states: states, deferred: noDefer}
	for s, d := range draws {
		m.states = append(m.states, meterState{name: s, draw: d})
	}
	slices.SortFunc(m.states, func(a, b meterState) int { return cmp.Compare(a.name, b.name) })
}

// Name reports the component name the meter was created with.
func (m *Meter) Name() string { return m.name }

// Start begins metering at instant now in the given initial state.
func (m *Meter) Start(now sim.Time, initial State) {
	if m.started {
		panic(fmt.Sprintf("energy: meter %q started twice", m.name))
	}
	m.cur = m.mustKnow(initial)
	m.since = now
	m.started = true
}

// Handle resolves state s to the handle Enter and Defer take. It panics
// on a state the meter was not built with.
func (m *Meter) Handle(s State) Handle { return m.mustKnow(s) }

// Transition moves the component into next at instant now, charging the
// elapsed interval to the outgoing state. Transitioning to the current
// state is a no-op (but still legal, so callers need not special-case it).
func (m *Meter) Transition(now sim.Time, next State) {
	m.Enter(now, m.mustKnow(next))
}

// Enter is Transition to a state resolved with Handle. A held deferred
// transition due by now is applied first, at its own instant; one due
// later is dropped, since the component changed state before it.
//
//hot:path
func (m *Meter) Enter(now sim.Time, next Handle) {
	if !m.started {
		panic(fmt.Sprintf("energy: meter %q used before Start", m.name))
	}
	if now < m.since {
		panic(fmt.Sprintf("energy: meter %q time went backwards (%v -> %v)", m.name, m.since, now))
	}
	if m.deferred != noDefer {
		if m.deferAt <= now {
			m.move(m.deferAt, m.deferred)
		}
		m.deferred = noDefer
	}
	m.move(now, next)
}

// Defer holds a transition into next at instant at, replacing any held
// one. The next Transition or Enter at or after at applies it first,
// and Flush and Reset apply it once now lies past at; until then the
// component stays in its current state. at must not precede the last
// transition.
//
//hot:path
func (m *Meter) Defer(at sim.Time, next Handle) {
	if at < m.since {
		panic(fmt.Sprintf("energy: meter %q deferred transition in the past (%v -> %v)", m.name, m.since, at))
	}
	m.deferred, m.deferAt = next, at
}

// Undefer drops the held deferred transition, if any.
//
//hot:path
func (m *Meter) Undefer() { m.deferred = noDefer }

// move charges the interval up to now to the current state and enters
// next.
func (m *Meter) move(now sim.Time, next Handle) {
	m.states[m.cur].timeIn += now - m.since
	m.cur = next
	m.since = now
}

// settle applies a held deferred transition whose instant lies before
// now.
func (m *Meter) settle(now sim.Time) {
	if m.deferred != noDefer && m.deferAt < now {
		m.move(m.deferAt, m.deferred)
		m.deferred = noDefer
	}
}

// State reports the component's current power state.
func (m *Meter) State() State {
	return m.states[m.cur].name
}

// Flush charges the interval since the last transition to the current
// state, up to instant now, without changing state. Call it once at the
// end of a run before reading totals.
func (m *Meter) Flush(now sim.Time) {
	if !m.started {
		return
	}
	if now < m.since {
		panic(fmt.Sprintf("energy: meter %q flush time went backwards", m.name))
	}
	m.settle(now)
	m.states[m.cur].timeIn += now - m.since
	m.since = now
}

// TimeIn reports the accumulated residence time in state s (after the
// last Flush or Transition); 0 for a state the meter does not know.
func (m *Meter) TimeIn(s State) sim.Time {
	if i, ok := m.index(s); ok {
		return m.states[i].timeIn
	}
	return 0
}

// Reset zeroes the accumulated residencies and restarts integration at
// instant now in the current state. Used after simulation warm-up so a
// measurement window covers steady state only.
func (m *Meter) Reset(now sim.Time) {
	if !m.started {
		return
	}
	if now < m.since {
		panic(fmt.Sprintf("energy: meter %q reset time went backwards", m.name))
	}
	m.settle(now)
	for i := range m.states {
		m.states[i].timeIn = 0
	}
	m.since = now
}

// EnergyJ reports the total energy in joules accumulated across all
// states, E = sum_s I_s·V_s·t_s. The sum runs over the sorted state
// list: float addition is not associative, so a varying order would let
// it leak into the last bits of the total and break exact run-to-run
// invariance.
func (m *Meter) EnergyJ() float64 {
	var e float64
	for i := range m.states {
		e += m.states[i].energyJ()
	}
	return e
}

// energyJ prices the state's residency. The conversion keeps a sum of
// these from fusing into multiply-adds on CPUs that have them.
func (s *meterState) energyJ() float64 {
	return float64(s.draw.Power() * s.timeIn.Seconds())
}

// EnergyInJ reports the energy accumulated in one state.
func (m *Meter) EnergyInJ(s State) float64 {
	i, ok := m.index(s)
	if !ok {
		return 0
	}
	return m.states[i].energyJ()
}

// States reports the meter's known states in sorted order.
func (m *Meter) States() []State {
	out := make([]State, len(m.states))
	for i := range m.states {
		out[i] = m.states[i].name
	}
	return out
}

// TotalTime reports the sum of residence times over all states.
func (m *Meter) TotalTime() sim.Time {
	var t sim.Time
	for i := range m.states {
		t += m.states[i].timeIn
	}
	return t
}

// index finds state s.
func (m *Meter) index(s State) (Handle, bool) {
	for i := range m.states {
		if m.states[i].name == s {
			return Handle(i), true
		}
	}
	return 0, false
}

// mustKnow finds state s, panicking on a state the meter was not built
// with.
func (m *Meter) mustKnow(s State) Handle {
	i, ok := m.index(s)
	if !ok {
		panic(fmt.Sprintf("energy: meter %q has no state %q", m.name, s))
	}
	return i
}

// LossCategory labels radio energy that the paper's §4.2 classifies as a
// distinct waste mechanism. Useful energy (delivering the node's own data)
// is not a loss category.
type LossCategory string

const (
	// LossCollision is energy spent on transmissions or receptions that
	// were corrupted by a concurrent transmission.
	LossCollision LossCategory = "collision"
	// LossIdleListening is energy spent with the receiver on while no
	// frame addressed to anyone was on the air.
	LossIdleListening LossCategory = "idle-listening"
	// LossOverhearing is energy spent receiving frames addressed to a
	// different node (discarded by the nRF2401 address filter).
	LossOverhearing LossCategory = "overhearing"
	// LossControl is energy spent sending/receiving control frames
	// (beacons, slot requests, grants, acks) rather than data.
	LossControl LossCategory = "control-overhead"
)

// lossCategories are the categories in report order.
var lossCategories = [...]LossCategory{LossCollision, LossIdleListening, LossOverhearing, LossControl}

// AllLossCategories lists the categories in report order.
func AllLossCategories() []LossCategory {
	return append([]LossCategory(nil), lossCategories[:]...)
}

// lossIndex returns c's position in lossCategories, or -1.
func lossIndex(c LossCategory) int {
	for i, lc := range lossCategories {
		if lc == c {
			return i
		}
	}
	return -1
}

// Ledger aggregates the meters of one node plus loss-category attribution.
type Ledger struct {
	// order holds the meters in registration order, which every sweep
	// and the by-name lookup walk. It starts out in inline, which holds a
	// node's radio, microcontroller and front end.
	order  []*Meter
	inline [3]*Meter
	// meters and slab back the meters Add builds: a node's three
	// components and their 13 states live in the ledger's own
	// allocation. Meters beyond that allocate their own.
	meters  [3]Meter
	nmeters int
	slab    []meterState
	states  [13]meterState
	// losses holds each category's joules, indexed like lossCategories;
	// attributed marks the categories charged since the last Reset, the
	// ones a Report lists.
	losses     [len(lossCategories)]float64
	attributed [len(lossCategories)]bool
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	l := &Ledger{}
	l.order = l.inline[:0]
	l.slab = l.states[:0]
	return l
}

// Add creates a component's meter with the given state table, as
// NewMeter does, and registers it.
func (l *Ledger) Add(name string, draws map[State]Draw) *Meter {
	var m *Meter
	if l.nmeters < len(l.meters) {
		m = &l.meters[l.nmeters]
		l.nmeters++
	} else {
		m = new(Meter)
	}
	n, end := len(l.slab), len(l.slab)+len(draws)
	if end <= cap(l.slab) {
		m.init(name, draws, l.slab[n:n:end])
		l.slab = l.slab[:end]
	} else {
		m.init(name, draws, make([]meterState, 0, len(draws)))
	}
	l.Register(m)
	return m
}

// Register adds a meter to the ledger. Component names must be unique.
func (l *Ledger) Register(m *Meter) {
	if l.Meter(m.Name()) != nil {
		panic(fmt.Sprintf("energy: duplicate meter %q", m.Name()))
	}
	l.order = append(l.order, m)
}

// Meter returns the registered meter with the given name, or nil.
func (l *Ledger) Meter(name string) *Meter {
	for _, m := range l.order {
		if m.name == name {
			return m
		}
	}
	return nil
}

// AttributeLoss charges joules of already-metered energy to a loss
// category. This is attribution, not additional energy: the joules were
// integrated by a meter; the category records *why* they were spent.
func (l *Ledger) AttributeLoss(c LossCategory, joules float64) {
	if joules < 0 {
		panic("energy: negative loss attribution")
	}
	i := lossIndex(c)
	if i < 0 {
		panic(fmt.Sprintf("energy: unknown loss category %q", c))
	}
	l.losses[i] += joules
	l.attributed[i] = true
}

// Loss reports the energy attributed to a category, in joules.
func (l *Ledger) Loss(c LossCategory) float64 {
	if i := lossIndex(c); i >= 0 {
		return l.losses[i]
	}
	return 0
}

// Flush flushes every registered meter at instant now.
func (l *Ledger) Flush(now sim.Time) {
	for _, m := range l.order {
		m.Flush(now)
	}
}

// Reset zeroes every meter and all loss attributions, restarting
// integration at instant now.
func (l *Ledger) Reset(now sim.Time) {
	for _, m := range l.order {
		m.Reset(now)
	}
	l.losses, l.attributed = [len(lossCategories)]float64{}, [len(lossCategories)]bool{}
}

// TotalJ reports the node's total energy across all components, summed
// in registration order so the float total is bit-identical run to run.
func (l *Ledger) TotalJ() float64 {
	var e float64
	for _, m := range l.order {
		e += m.EnergyJ()
	}
	return e
}

// Report snapshots the ledger into a plain-data Report.
func (l *Ledger) Report() Report {
	r := Report{
		Components: make([]ComponentReport, 0, len(l.order)),
		Losses:     Losses{j: l.losses, set: l.attributed},
	}
	n := 0
	for _, m := range l.order {
		n += len(m.states)
	}
	states := make(StateReports, 0, n) // one allocation backs every component's
	for _, m := range l.order {
		from := len(states)
		cr := ComponentReport{Name: m.Name()}
		for i := range m.states {
			s := &m.states[i]
			e := s.energyJ()
			states = append(states, StateReport{State: s.name, Time: s.timeIn, EnergyJ: e})
			cr.EnergyJ += e
		}
		cr.States = states[from:len(states):len(states)]
		r.Components = append(r.Components, cr)
		r.TotalJ += cr.EnergyJ
	}
	return r
}

// StateReport is the per-state slice of a component report.
type StateReport struct {
	State   State `json:"-"`
	Time    sim.Time
	EnergyJ float64
}

// StateReports lists a component's per-state reports sorted by state
// name. In JSON it is an object keyed by state name.
type StateReports []StateReport

// Get returns the report of state s, the zero value for a state the
// component does not have.
func (r StateReports) Get(s State) StateReport {
	for _, sr := range r {
		if sr.State == s {
			return sr
		}
	}
	return StateReport{}
}

// MarshalJSON encodes the reports as an object keyed by state name, in
// name order, exactly as encoding/json writes a map of them.
func (r StateReports) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, sr := range r {
		if i > 0 {
			b = append(b, ',')
		}
		k, err := json.Marshal(string(sr.State))
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(sr)
		if err != nil {
			return nil, err
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes the object MarshalJSON writes.
func (r *StateReports) UnmarshalJSON(b []byte) error {
	var m map[State]StateReport
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*r = make(StateReports, 0, len(m))
	for s, sr := range m {
		sr.State = s
		*r = append(*r, sr)
	}
	slices.SortFunc(*r, func(a, b StateReport) int { return cmp.Compare(a.State, b.State) })
	return nil
}

// ComponentReport is the per-component slice of a node energy report.
type ComponentReport struct {
	Name    string
	EnergyJ float64
	States  StateReports
}

// EnergyMJ reports the component total in millijoules, the unit used in
// the paper's tables.
func (c ComponentReport) EnergyMJ() float64 { return float64(c.EnergyJ * 1e3) }

// Report is a plain-data snapshot of a node's energy accounting.
type Report struct {
	Components []ComponentReport
	TotalJ     float64
	Losses     Losses
}

// Losses holds a report's joules per loss category, for the categories
// charged since the ledger's last reset. In JSON it is an object keyed by
// category, exactly as encoding/json writes a map of them.
type Losses struct {
	j   [len(lossCategories)]float64
	set [len(lossCategories)]bool
}

// Get returns the joules charged to c, 0 for a category never charged.
func (l Losses) Get(c LossCategory) float64 {
	j, _ := l.Lookup(c)
	return j
}

// Lookup returns the joules charged to c and whether any were.
func (l Losses) Lookup(c LossCategory) (float64, bool) {
	if i := lossIndex(c); i >= 0 && l.set[i] {
		return l.j[i], true
	}
	return 0, false
}

// MarshalJSON encodes the charged categories as an object in key order.
func (l Losses) MarshalJSON() ([]byte, error) {
	m := make(map[LossCategory]float64, len(lossCategories))
	for i, c := range lossCategories {
		if l.set[i] {
			m[c] = l.j[i]
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes the object MarshalJSON writes.
func (l *Losses) UnmarshalJSON(b []byte) error {
	var m map[LossCategory]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*l = Losses{}
	for c, j := range m {
		i := lossIndex(c)
		if i < 0 {
			return fmt.Errorf("energy: unknown loss category %q", c)
		}
		l.j[i], l.set[i] = j, true
	}
	return nil
}

// Component returns the report for the named component (zero value if
// absent) and whether it was found.
func (r Report) Component(name string) (ComponentReport, bool) {
	for _, c := range r.Components {
		if c.Name == name {
			return c, true
		}
	}
	return ComponentReport{}, false
}

// TotalMJ reports the node total in millijoules.
func (r Report) TotalMJ() float64 { return float64(r.TotalJ * 1e3) }
