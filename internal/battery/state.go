package battery

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/sim"
)

// Level is the node's position in the graceful-degradation state
// machine. Levels are ordered: a draining battery only ever moves to a
// higher level (state of charge is monotonically non-increasing), so
// the runtime never has to undo a degradation action.
//
//lint:exhaustive
type Level int

const (
	// LevelNormal is full operation.
	LevelNormal Level = iota
	// LevelStretch skips every k-th TDMA data slot (duty-cycle stretch).
	LevelStretch
	// LevelDownshift additionally divides the application sampling rate.
	LevelDownshift
	// LevelBeaconOnly stops the application, releases the slot back to
	// the base station, and keeps only beacon synchronisation alive.
	LevelBeaconOnly
	// LevelDead is the brownout: the cell can no longer hold the supply
	// rail and the node crashes for good.
	LevelDead
	// NumLevels sizes per-level accounting arrays.
	NumLevels = int(LevelDead) + 1
)

// String names the level for traces and reports.
func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelStretch:
		return "stretch"
	case LevelDownshift:
		return "downshift"
	case LevelBeaconOnly:
		return "beacon-only"
	case LevelDead:
		return "dead"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Degradation-policy defaults, named per banlint/unitconst: watermarks
// are state-of-charge fractions, the knobs are dimensionless.
const (
	// defaultStretchSOC is the watermark below which the duty cycle
	// stretches.
	defaultStretchSOC = 0.30
	// defaultDownshiftSOC is the watermark below which the application
	// sampling rate divides.
	defaultDownshiftSOC = 0.15
	// defaultBeaconOnlySOC is the watermark below which the node parks
	// in beacon-only mode.
	defaultBeaconOnlySOC = 0.05
	// defaultStretchEvery skips one data slot in every this-many cycles.
	defaultStretchEvery = 4
	// defaultDownshiftFactor divides the sampling rate at the downshift
	// watermark.
	defaultDownshiftFactor = 2.0
)

// DegradePolicy configures the low-battery watermarks and what each one
// does. Watermarks are state-of-charge fractions in (0, 1); a level
// engages when the SOC falls strictly below its watermark. Zero fields
// select the documented defaults (there is no way to disable a single
// stage — omit the whole policy instead).
type DegradePolicy struct {
	// StretchSOC engages duty-cycle stretching: the MAC skips its data
	// slot on every StretchEvery-th beacon cycle. 0 selects 0.30.
	StretchSOC float64 `json:"stretchSOC,omitempty"`
	// StretchEvery is the skip cadence (>= 2); 0 selects 4.
	StretchEvery int `json:"stretchEvery,omitempty"`
	// DownshiftSOC engages the application sample-rate downshift.
	// 0 selects 0.15.
	DownshiftSOC float64 `json:"downshiftSOC,omitempty"`
	// DownshiftFactor divides the sampling rate (> 1); 0 selects 2.
	DownshiftFactor float64 `json:"downshiftFactor,omitempty"`
	// BeaconOnlySOC engages the final beacon-only mode. 0 selects 0.05.
	BeaconOnlySOC float64 `json:"beaconOnlySOC,omitempty"`
}

// DefaultDegradePolicy returns the documented default watermarks.
func DefaultDegradePolicy() DegradePolicy {
	return DegradePolicy{
		StretchSOC:      defaultStretchSOC,
		StretchEvery:    defaultStretchEvery,
		DownshiftSOC:    defaultDownshiftSOC,
		DownshiftFactor: defaultDownshiftFactor,
		BeaconOnlySOC:   defaultBeaconOnlySOC,
	}
}

// Validate applies the documented defaults to zero fields and rejects a
// policy whose watermarks are not strictly ordered inside (0, 1) —
// beacon-only < downshift < stretch — or whose knobs are degenerate.
func (p *DegradePolicy) Validate() error {
	if approx.Unset(p.StretchSOC) {
		p.StretchSOC = defaultStretchSOC
	}
	if p.StretchEvery == 0 {
		p.StretchEvery = defaultStretchEvery
	}
	if approx.Unset(p.DownshiftSOC) {
		p.DownshiftSOC = defaultDownshiftSOC
	}
	if approx.Unset(p.DownshiftFactor) {
		p.DownshiftFactor = defaultDownshiftFactor
	}
	if approx.Unset(p.BeaconOnlySOC) {
		p.BeaconOnlySOC = defaultBeaconOnlySOC
	}
	if p.BeaconOnlySOC <= 0 || p.StretchSOC >= 1 ||
		p.DownshiftSOC <= p.BeaconOnlySOC || p.StretchSOC <= p.DownshiftSOC {
		return fmt.Errorf("battery: degrade watermarks must satisfy 0 < beaconOnly (%v) < downshift (%v) < stretch (%v) < 1",
			p.BeaconOnlySOC, p.DownshiftSOC, p.StretchSOC)
	}
	if p.StretchEvery < 2 {
		return fmt.Errorf("battery: stretchEvery %d must be >= 2 (1 would skip every slot)", p.StretchEvery)
	}
	if p.DownshiftFactor <= 1 {
		return fmt.Errorf("battery: downshiftFactor %v must exceed 1", p.DownshiftFactor)
	}
	return nil
}

// levelFor maps a state of charge to the policy's target level. A nil
// policy never degrades (the battery still browns out on voltage).
func (p *DegradePolicy) levelFor(soc float64) Level {
	if p == nil {
		return LevelNormal
	}
	switch {
	case soc < p.BeaconOnlySOC:
		return LevelBeaconOnly
	case soc < p.DownshiftSOC:
		return LevelDownshift
	case soc < p.StretchSOC:
		return LevelStretch
	default:
		return LevelNormal
	}
}

// socPoint anchors the piecewise-linear discharge curve: terminal
// voltage as a fraction of the nominal rating at a state-of-charge
// fraction.
type socPoint struct {
	soc  float64
	frac float64
}

// dischargeCurve is a first-order lithium-cell discharge shape: a
// slightly elevated fresh-cell voltage, the long flat plateau coin and
// pouch cells are chosen for, and the knee that collapses toward the
// cutoff as the chemistry exhausts. Fractions of nominal keep one curve
// valid for every cell the package models.
var dischargeCurve = []socPoint{
	{1.00, 1.04},
	{0.90, 1.00},
	{0.60, 0.98},
	{0.30, 0.95},
	{0.15, 0.90},
	{0.08, 0.82},
	{0.03, 0.70},
	{0.00, 0.60},
}

// defaultCutoffFrac positions the default brownout threshold on the
// curve's knee: 67% of nominal sits between the curve's 3% and 0% SOC
// anchors, so a node browns out with ~2% of charge stranded — after
// every degradation watermark has had its chance to fire.
const defaultCutoffFrac = 0.67

// VoltageAt reports the cell's terminal voltage at the given state of
// charge (clamped to [0, 1]), by linear interpolation on the discharge
// curve.
func (b Battery) VoltageAt(soc float64) float64 {
	if soc > 1 {
		soc = 1
	}
	if soc < 0 {
		soc = 0
	}
	for i := 1; i < len(dischargeCurve); i++ {
		hi, lo := dischargeCurve[i-1], dischargeCurve[i]
		if soc >= lo.soc {
			span := hi.soc - lo.soc
			t := 0.0
			if span > 0 {
				t = (soc - lo.soc) / span
			}
			return b.VoltageV * (lo.frac + float64(t*(hi.frac-lo.frac)))
		}
	}
	return b.VoltageV * dischargeCurve[len(dischargeCurve)-1].frac
}

// DefaultCutoffV is the brownout threshold used when a scenario leaves
// BrownoutV unset.
func (b Battery) DefaultCutoffV() float64 {
	return b.VoltageV * defaultCutoffFrac
}

// Transition reports what one Debit call did to the degradation state
// machine. From == To means nothing changed.
type Transition struct {
	From, To Level
	// TimeInFrom is how long the state spent in From (set only when a
	// transition happened).
	TimeInFrom sim.Time
	// Died reports a brownout: To is LevelDead and the node must crash.
	Died bool
}

// State is one node's live battery: a coulomb counter debited from the
// node's energy ledger as the simulation runs. All methods are
// deterministic functions of the debit sequence, so equal runs produce
// byte-identical battery histories at any worker count.
type State struct {
	cell      Battery
	usableJ   float64
	brownoutV float64
	policy    *DegradePolicy

	drawnJ      float64
	lastLedgerJ float64
	// resetDrawnJ is the drawnJ reading at the last ledger reset, so the
	// conservation audit can compare this epoch's draw against the
	// ledger's cumulative total.
	resetDrawnJ float64
	level       Level
	levelSince  sim.Time
	timeIn      [NumLevels]sim.Time
	usedIn      [NumLevels]float64
	transitions uint64
	dead        bool
	diedAt      sim.Time
}

// NewState builds a live battery over one node's ledger. brownoutV == 0
// selects the cell's default cutoff; policy may be nil (no graceful
// degradation — the node runs flat out until it browns out). The policy
// is copied and normalised, so callers can share one value across
// nodes.
func NewState(cell Battery, brownoutV float64, policy *DegradePolicy, now sim.Time) *State {
	usable := cell.UsableJ()
	if usable <= 0 {
		panic(fmt.Sprintf("battery: unusable cell %+v", cell))
	}
	if approx.Unset(brownoutV) {
		brownoutV = cell.DefaultCutoffV()
	}
	s := &State{
		cell:       cell,
		usableJ:    usable,
		brownoutV:  brownoutV,
		levelSince: now,
	}
	if policy != nil {
		p := *policy
		if err := p.Validate(); err != nil {
			panic(err)
		}
		s.policy = &p
	}
	return s
}

// Policy returns the normalised degradation policy (nil when the node
// has none).
func (s *State) Policy() *DegradePolicy { return s.policy }

// SOC reports the remaining state of charge in [0, 1].
func (s *State) SOC() float64 {
	soc := 1 - s.drawnJ/s.usableJ
	if soc < 0 {
		return 0
	}
	if soc > 1 {
		return 1
	}
	return soc
}

// VoltageV reports the cell's current terminal voltage.
func (s *State) VoltageV() float64 { return s.cell.VoltageAt(s.SOC()) }

// RemainingJ reports the usable energy still in the cell.
func (s *State) RemainingJ() float64 {
	r := s.usableJ - s.drawnJ
	if r < 0 {
		return 0
	}
	return r
}

// Level reports the current degradation level.
func (s *State) Level() Level { return s.level }

// LevelSince reports when the current level was entered.
func (s *State) LevelSince() sim.Time { return s.levelSince }

// Dead reports whether the cell has browned out.
func (s *State) Dead() bool { return s.dead }

// DiedAt reports the brownout instant (0 while alive).
func (s *State) DiedAt() sim.Time { return s.diedAt }

// NoteLedgerReset tells the state its ledger's cumulative total was
// zeroed (the warmup-end accounting reset), so the next Debit diffs
// against zero instead of double-charging or missing draw.
func (s *State) NoteLedgerReset() {
	s.lastLedgerJ = 0
	s.resetDrawnJ = s.drawnJ
}

// auditRelTol is the relative tolerance for the energy-conservation
// audit. The debit path telescopes ledger readings, so the books agree
// to floating-point rounding; anything past 1e-9 relative is a lost or
// double-counted debit, not noise.
const auditRelTol = 1e-9

// AuditConservation checks the battery's books against the ledger it is
// debited from, returning a detail string per broken law (nil when
// consistent). ledgerJ is the ledger's current cumulative total, flushed
// to the audit instant. The laws: the draw accumulated since the last
// ledger reset equals the last ledger reading the battery consumed
// (the telescoping Debit sequence loses nothing), and the battery never
// debits more than the ledger metered. Both hold for dead cells too —
// death freezes drawnJ and lastLedgerJ together.
func (s *State) AuditConservation(ledgerJ float64) []string {
	var v []string
	epochDrawn := s.drawnJ - s.resetDrawnJ
	if !approx.EqRel(epochDrawn, s.lastLedgerJ, auditRelTol) {
		v = append(v, fmt.Sprintf(
			"battery drew %.12g J this epoch but consumed ledger readings totalling %.12g J",
			epochDrawn, s.lastLedgerJ))
	}
	if s.lastLedgerJ > ledgerJ && !approx.EqRel(s.lastLedgerJ, ledgerJ, auditRelTol) {
		v = append(v, fmt.Sprintf(
			"battery debited from a ledger reading of %.12g J but the ledger only metered %.12g J",
			s.lastLedgerJ, ledgerJ))
	}
	return v
}

// Debit charges the battery with the ledger's growth since the last
// call (ledgerJ is the ledger's cumulative total), advances the
// degradation state machine and reports what changed. After a brownout
// further debits are no-ops: the node is off and draws nothing.
func (s *State) Debit(now sim.Time, ledgerJ float64) Transition {
	tr := Transition{From: s.level, To: s.level}
	if s.dead {
		return tr
	}
	delta := ledgerJ - s.lastLedgerJ
	s.lastLedgerJ = ledgerJ
	if delta < 0 {
		// The ledger restarted without NoteLedgerReset; the whole
		// reading is new draw.
		delta = ledgerJ
	}
	if delta > 0 {
		s.drawnJ += delta
		s.usedIn[s.level] += delta
	}
	if s.VoltageV() < s.brownoutV || s.SOC() <= 0 {
		tr.TimeInFrom = now - s.levelSince
		s.enterLevel(now, LevelDead)
		s.dead = true
		s.diedAt = now
		tr.To = LevelDead
		tr.Died = true
		return tr
	}
	if want := s.policy.levelFor(s.SOC()); want > s.level {
		tr.TimeInFrom = now - s.levelSince
		s.enterLevel(now, want)
		tr.To = want
	}
	return tr
}

// enterLevel closes the open residency interval and moves to next.
func (s *State) enterLevel(now sim.Time, next Level) {
	s.timeIn[s.level] += now - s.levelSince
	s.level = next
	s.levelSince = now
	s.transitions++
}

// Report is a plain-data battery summary for results and metrics.
type Report struct {
	// SOC and VoltageV describe the cell at snapshot time.
	SOC      float64 `json:"soc"`
	VoltageV float64 `json:"voltageV"`
	// DrawnJ / RemainingJ split the usable energy.
	DrawnJ     float64 `json:"drawnJ"`
	RemainingJ float64 `json:"remainingJ"`
	// Level is the degradation level at snapshot time.
	Level     Level  `json:"level"`
	LevelName string `json:"levelName"`
	// Died/DiedAt report the brownout, if any.
	Died   bool     `json:"died,omitempty"`
	DiedAt sim.Time `json:"diedAt,omitempty"`
	// Transitions counts level changes (brownout included).
	Transitions uint64 `json:"transitions,omitempty"`
	// TimeIn and UsedJ are per-level residency and consumption,
	// indexed by Level; the interval open at snapshot time is included.
	TimeIn [NumLevels]sim.Time `json:"timeInNs"`
	UsedJ  [NumLevels]float64  `json:"usedJ"`
}

// Snapshot summarises the battery at instant now without mutating it,
// so it can be taken repeatedly (mid-run and at finalisation).
func (s *State) Snapshot(now sim.Time) Report {
	rep := Report{
		SOC:         s.SOC(),
		VoltageV:    s.VoltageV(),
		DrawnJ:      s.drawnJ,
		RemainingJ:  s.RemainingJ(),
		Level:       s.level,
		LevelName:   s.level.String(),
		Died:        s.dead,
		DiedAt:      s.diedAt,
		Transitions: s.transitions,
		TimeIn:      s.timeIn,
		UsedJ:       s.usedIn,
	}
	if now > s.levelSince {
		rep.TimeIn[s.level] += now - s.levelSince
	}
	return rep
}
