package energy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func twoStateMeter() *Meter {
	return NewMeter("mcu", map[State]Draw{
		"active": {CurrentA: 2e-3, VoltageV: 2.8},
		"lpm":    {CurrentA: 0.66e-3, VoltageV: 2.8},
	})
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDrawPower(t *testing.T) {
	d := Draw{CurrentA: 2e-3, VoltageV: 2.8}
	if !approx(d.Power(), 5.6e-3, 1e-12) {
		t.Fatalf("Power = %v, want 5.6mW", d.Power())
	}
}

func TestMeterSimpleIntegration(t *testing.T) {
	m := twoStateMeter()
	m.Start(0, "lpm")
	m.Transition(10*sim.Second, "active") // 10s lpm
	m.Transition(20*sim.Second, "lpm")    // 10s active
	m.Flush(60 * sim.Second)              // 40s lpm

	if got := m.TimeIn("active"); got != 10*sim.Second {
		t.Fatalf("TimeIn(active) = %v, want 10s", got)
	}
	if got := m.TimeIn("lpm"); got != 50*sim.Second {
		t.Fatalf("TimeIn(lpm) = %v, want 50s", got)
	}
	// E = 5.6mW*10s + 1.848mW*50s = 56mJ + 92.4mJ = 148.4mJ
	if !approx(m.EnergyJ(), 0.1484, 1e-9) {
		t.Fatalf("EnergyJ = %v, want 0.1484", m.EnergyJ())
	}
	if !approx(m.EnergyInJ("active"), 0.056, 1e-9) {
		t.Fatalf("EnergyInJ(active) = %v", m.EnergyInJ("active"))
	}
}

func TestMeterSelfTransitionIsNoop(t *testing.T) {
	m := twoStateMeter()
	m.Start(0, "lpm")
	m.Transition(5*sim.Second, "lpm")
	m.Transition(5*sim.Second, "lpm")
	m.Flush(10 * sim.Second)
	if got := m.TimeIn("lpm"); got != 10*sim.Second {
		t.Fatalf("TimeIn(lpm) = %v, want 10s", got)
	}
}

func TestMeterPaperMicrocontrollerBaseline(t *testing.T) {
	// The paper's floor: MCU in power-save for the whole 60s window at
	// 0.66mA, 2.8V -> 110.88 mJ. This is the offset under every µC number
	// in Tables 1-4.
	m := twoStateMeter()
	m.Start(0, "lpm")
	m.Flush(60 * sim.Second)
	if !approx(m.EnergyJ()*1e3, 110.88, 1e-6) {
		t.Fatalf("60s LPM = %v mJ, want 110.88", m.EnergyJ()*1e3)
	}
}

func TestMeterPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"transition before start", func() {
			twoStateMeter().Transition(0, "active")
		}},
		{"unknown initial state", func() {
			twoStateMeter().Start(0, "warp")
		}},
		{"unknown transition state", func() {
			m := twoStateMeter()
			m.Start(0, "lpm")
			m.Transition(1, "warp")
		}},
		{"time backwards", func() {
			m := twoStateMeter()
			m.Start(10, "lpm")
			m.Transition(5, "active")
		}},
		{"flush backwards", func() {
			m := twoStateMeter()
			m.Start(10, "lpm")
			m.Flush(5)
		}},
		{"double start", func() {
			m := twoStateMeter()
			m.Start(0, "lpm")
			m.Start(0, "lpm")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn()
		})
	}
}

func TestFlushBeforeStartIsNoop(t *testing.T) {
	m := twoStateMeter()
	m.Flush(10 * sim.Second) // must not panic
	if m.EnergyJ() != 0 {
		t.Fatalf("unstarted meter accumulated energy")
	}
}

// Property: residence times always sum to the full metered window, no
// matter the transition pattern (time conservation).
func TestQuickTimeConservation(t *testing.T) {
	f := func(steps []uint16, states []bool) bool {
		m := twoStateMeter()
		m.Start(0, "lpm")
		now := sim.Time(0)
		for i, d := range steps {
			now += sim.Time(d) * sim.Microsecond
			s := State("lpm")
			if i < len(states) && states[i] {
				s = "active"
			}
			m.Transition(now, s)
		}
		now += sim.Millisecond
		m.Flush(now)
		return m.TotalTime() == now
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is monotone non-decreasing in time and never negative.
func TestQuickEnergyMonotone(t *testing.T) {
	f := func(steps []uint16) bool {
		m := twoStateMeter()
		m.Start(0, "active")
		now := sim.Time(0)
		prev := 0.0
		for i, d := range steps {
			now += sim.Time(d) * sim.Microsecond
			if i%2 == 0 {
				m.Transition(now, "lpm")
			} else {
				m.Transition(now, "active")
			}
			m.Flush(now)
			e := m.EnergyJ()
			if e < prev-1e-15 || e < 0 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerAggregation(t *testing.T) {
	l := NewLedger()
	mcu := twoStateMeter()
	radio := NewMeter("radio", map[State]Draw{
		"rx":  {CurrentA: 24.82e-3, VoltageV: 2.8},
		"tx":  {CurrentA: 17.54e-3, VoltageV: 2.8},
		"off": {},
	})
	l.Register(mcu)
	l.Register(radio)

	mcu.Start(0, "active")
	radio.Start(0, "off")
	radio.Transition(1*sim.Second, "rx")
	radio.Transition(2*sim.Second, "off")
	l.Flush(10 * sim.Second)

	wantMCU := 5.6e-3 * 10
	wantRadio := 24.82e-3 * 2.8 * 1
	if !approx(l.TotalJ(), wantMCU+wantRadio, 1e-9) {
		t.Fatalf("TotalJ = %v, want %v", l.TotalJ(), wantMCU+wantRadio)
	}

	r := l.Report()
	if len(r.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(r.Components))
	}
	if r.Components[0].Name != "mcu" || r.Components[1].Name != "radio" {
		t.Fatalf("report order not registration order: %v, %v",
			r.Components[0].Name, r.Components[1].Name)
	}
	cr, ok := r.Component("radio")
	if !ok {
		t.Fatalf("radio missing from report")
	}
	if !approx(cr.EnergyJ, wantRadio, 1e-9) {
		t.Fatalf("radio energy = %v, want %v", cr.EnergyJ, wantRadio)
	}
	if !approx(r.TotalMJ(), (wantMCU+wantRadio)*1e3, 1e-6) {
		t.Fatalf("TotalMJ = %v", r.TotalMJ())
	}
	if _, ok := r.Component("nope"); ok {
		t.Fatalf("unknown component reported present")
	}
}

func TestLedgerDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration did not panic")
		}
	}()
	l := NewLedger()
	l.Register(twoStateMeter())
	l.Register(twoStateMeter())
}

func TestLedgerLossAttribution(t *testing.T) {
	l := NewLedger()
	l.AttributeLoss(LossCollision, 0.5e-3)
	l.AttributeLoss(LossCollision, 0.25e-3)
	l.AttributeLoss(LossOverhearing, 1e-3)
	if !approx(l.Loss(LossCollision), 0.75e-3, 1e-12) {
		t.Fatalf("collision loss = %v", l.Loss(LossCollision))
	}
	if l.Loss(LossIdleListening) != 0 {
		t.Fatalf("unattributed category nonzero")
	}
	r := l.Report()
	if !approx(r.Losses.Get(LossOverhearing), 1e-3, 1e-12) {
		t.Fatalf("report losses = %v", r.Losses)
	}
}

func TestLedgerNegativeLossPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative loss did not panic")
		}
	}()
	NewLedger().AttributeLoss(LossControl, -1)
}

func TestAllLossCategories(t *testing.T) {
	cats := AllLossCategories()
	if len(cats) != 4 {
		t.Fatalf("want the paper's 4 loss categories, got %d", len(cats))
	}
	seen := map[LossCategory]bool{}
	for _, c := range cats {
		if seen[c] {
			t.Fatalf("duplicate category %q", c)
		}
		seen[c] = true
	}
}

func TestMeterStatesSorted(t *testing.T) {
	m := NewMeter("r", map[State]Draw{"tx": {}, "off": {}, "rx": {}})
	states := m.States()
	want := []State{"off", "rx", "tx"}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("States() = %v, want %v", states, want)
		}
	}
}

func TestLedgerMeterLookup(t *testing.T) {
	l := NewLedger()
	m := twoStateMeter()
	l.Register(m)
	if l.Meter("mcu") != m {
		t.Fatalf("Meter lookup failed")
	}
	if l.Meter("ghost") != nil {
		t.Fatalf("unknown meter lookup should return nil")
	}
}

func TestReportEnergyMJ(t *testing.T) {
	cr := ComponentReport{EnergyJ: 0.5406}
	if !approx(cr.EnergyMJ(), 540.6, 1e-9) {
		t.Fatalf("EnergyMJ = %v, want 540.6", cr.EnergyMJ())
	}
}

// TestStateReportsJSON pins the report's JSON to the form a map of the
// states took (an object keyed by state name, in name order) and checks
// that it decodes back.
func TestStateReportsJSON(t *testing.T) {
	l := NewLedger()
	m := l.Add("radio", map[State]Draw{"tx": {CurrentA: 1e-2, VoltageV: 3}, "off": {}, "rx": {CurrentA: 2e-2, VoltageV: 3}})
	m.Start(0, "off")
	m.Transition(sim.Second, "rx")
	m.Transition(3*sim.Second, "tx")
	l.Flush(4 * sim.Second)
	states := l.Report().Components[0].States
	got, err := json.Marshal(states)
	if err != nil {
		t.Fatal(err)
	}
	asMap := map[State]StateReport{}
	for _, sr := range states {
		asMap[sr.State] = sr
	}
	want, err := json.Marshal(asMap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON %s, want the map form %s", got, want)
	}
	var back StateReports
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, states) {
		t.Fatalf("decoded %v, want %v", back, states)
	}
	if sr := states.Get("rx"); sr.Time != 2*sim.Second {
		t.Fatalf("Get(rx) = %+v, want 2s", sr)
	}
	if sr := states.Get("lpm"); sr != (StateReport{}) {
		t.Fatalf("Get of an unknown state = %+v, want zero", sr)
	}
}

// TestLossesJSON checks that a report's losses encode exactly as the map
// of the charged categories they replace, decode back, and answer
// lookups of uncharged categories with zero.
func TestLossesJSON(t *testing.T) {
	l := NewLedger()
	l.AttributeLoss(LossOverhearing, 2e-3)
	l.AttributeLoss(LossCollision, 1e-3)
	l.AttributeLoss(LossControl, 0)
	losses := l.Report().Losses
	got, err := json.Marshal(losses)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(map[LossCategory]float64{LossOverhearing: 2e-3, LossCollision: 1e-3, LossControl: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON %s, want the map form %s", got, want)
	}
	var back Losses
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back != losses {
		t.Fatalf("decoded %+v, want %+v", back, losses)
	}
	if j, ok := losses.Lookup(LossIdleListening); ok || j != 0 {
		t.Fatalf("Lookup of an uncharged category = %v, %v; want 0, false", j, ok)
	}
	if j, ok := losses.Lookup(LossControl); !ok || j != 0 {
		t.Fatalf("Lookup of a category charged 0 J = %v, %v; want 0, true", j, ok)
	}
	if err := json.Unmarshal([]byte(`{"thermal":1}`), &back); err == nil {
		t.Fatal("decoded an unknown loss category")
	}
}

// TestLedgerAddBeyondInline builds more meters and states than the
// ledger's own allocation holds and checks that every meter keeps its
// own states.
func TestLedgerAddBeyondInline(t *testing.T) {
	l := NewLedger()
	var ms []*Meter
	for i := range 5 {
		m := l.Add(fmt.Sprintf("c%d", i), map[State]Draw{
			"a": {CurrentA: float64(i + 1), VoltageV: 1}, "b": {}, "c": {}, "d": {}})
		m.Start(0, "b")
		m.Transition(sim.Time(i+1)*sim.Second, "a")
		ms = append(ms, m)
	}
	l.Flush(10 * sim.Second)
	for i, m := range ms {
		if l.Meter(m.Name()) != m {
			t.Fatalf("meter %s not registered", m.Name())
		}
		if got, want := m.TimeIn("a"), sim.Time(9-i)*sim.Second; got != want {
			t.Fatalf("%s: %v in a, want %v", m.Name(), got, want)
		}
		if got, want := m.EnergyJ(), float64((i+1)*(9-i)); !approx(got, want, 1e-9) {
			t.Fatalf("%s: %v J, want %v", m.Name(), got, want)
		}
	}
}

// TestDeferThen holds two deferred transitions: Flush applies those
// whose instants have passed, ApplyBy those due by its instant, each at
// its own instant, Enter every one due, and a later Defer or Undefer
// replaces both.
func TestDeferThen(t *testing.T) {
	m := NewMeter("radio", map[State]Draw{"off": {}, "standby": {CurrentA: 1, VoltageV: 1}, "tx": {CurrentA: 2, VoltageV: 1}})
	off, standby, tx := m.Handle("off"), m.Handle("standby"), m.Handle("tx")
	m.Start(0, "off")
	m.Defer(10, standby)
	m.DeferThen(20, tx)
	m.Flush(15)
	if m.State() != "standby" || m.TimeIn("off") != 10 || m.TimeIn("standby") != 5 {
		t.Fatalf("after Flush(15): in %s, off %v, standby %v; want standby, 10, 5", m.State(), m.TimeIn("off"), m.TimeIn("standby"))
	}
	m.ApplyBy(20)
	if m.State() != "tx" || m.TimeIn("standby") != 10 {
		t.Fatalf("after ApplyBy(20): in %s, standby %v; want tx, 10", m.State(), m.TimeIn("standby"))
	}
	m.Enter(30, off)
	if m.TimeIn("tx") != 10 {
		t.Fatalf("tx %v, want 10", m.TimeIn("tx"))
	}
	m.Defer(40, standby)
	m.DeferThen(50, tx)
	m.Enter(45, off) // the first is due, the second dropped
	m.Flush(60)
	if m.State() != "off" || m.TimeIn("standby") != 15 || m.TimeIn("tx") != 10 {
		t.Fatalf("after Enter(45): in %s, standby %v, tx %v; want off, 15, 10", m.State(), m.TimeIn("standby"), m.TimeIn("tx"))
	}
	m.Defer(70, standby)
	m.DeferThen(80, tx)
	m.Undefer()
	m.Flush(90)
	if m.State() != "off" {
		t.Fatalf("after Undefer: in %s, want off", m.State())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DeferThen before the first transition did not panic")
		}
	}()
	m.Defer(100, standby)
	m.DeferThen(95, tx)
}
