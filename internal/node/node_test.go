package node

import (
	"testing"

	"repro/internal/app"
	"repro/internal/channel"
	"repro/internal/ecg"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
)

type rig struct {
	k      *sim.Kernel
	ch     *channel.Channel
	tracer *metrics.Recorder
	base   *Base
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	return &rig{
		k: k, ch: ch, tracer: tracer,
		base: NewBase(k, ch, tracer, mac.BSConfig{Protocol: mac.ProtoStatic, StaticCycle: 30 * sim.Millisecond}),
	}
}

func staticNode(id uint8) mac.NodeConfig {
	prof := platform.IMEC()
	return mac.NodeConfig{Protocol: mac.ProtoStatic, NodeID: id, Profile: &prof}
}

func (r *rig) sensor(t *testing.T, id uint8) *Sensor {
	t.Helper()
	s := NewSensor(r.k, r.ch, r.tracer, staticNode(id))
	sig := ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, Seed: 1})
	s.AttachApp(func(env app.Env) app.App {
		return app.NewStreaming(env, app.StreamingConfig{
			SampleRateHz: 205, Channels: 2, Signal: sig,
		})
	})
	return s
}

func TestFullStackJoinsAndStreams(t *testing.T) {
	r := newRig(t)
	s := r.sensor(t, 1)
	r.k.Schedule(0, func(*sim.Kernel) { r.base.Start() })
	r.k.Schedule(5*sim.Millisecond, func(*sim.Kernel) { s.Start() })
	r.k.RunUntil(2 * sim.Second)
	if !s.Mac.Joined() {
		t.Fatalf("node did not join")
	}
	if got := r.base.BS.Stats().DataReceived; got < 50 {
		t.Fatalf("bs received %d frames, want >= 50", got)
	}
	// The application started automatically on join.
	if s.Frontend.SamplesTaken() == 0 {
		t.Fatalf("application never started sampling")
	}
}

func TestFinalizeEnergyComponents(t *testing.T) {
	r := newRig(t)
	s := r.sensor(t, 1)
	r.k.Schedule(0, func(*sim.Kernel) { r.base.Start() })
	r.k.Schedule(5*sim.Millisecond, func(*sim.Kernel) { s.Start() })
	r.k.RunUntil(2 * sim.Second)
	rep := s.FinalizeEnergy(r.k.Now())
	for _, comp := range []string{platform.ComponentMCU, platform.ComponentRadio, platform.ComponentASIC} {
		c, ok := rep.Component(comp)
		if !ok || c.EnergyJ <= 0 {
			t.Fatalf("component %s missing or zero: %+v", comp, c)
		}
	}
	if rep.TotalJ <= 0 {
		t.Fatalf("zero total")
	}
}

func TestResetAccountingClearsEverything(t *testing.T) {
	r := newRig(t)
	s := r.sensor(t, 1)
	r.k.Schedule(0, func(*sim.Kernel) { r.base.Start() })
	r.k.Schedule(5*sim.Millisecond, func(*sim.Kernel) { s.Start() })
	r.k.RunUntil(2 * sim.Second)
	s.ResetAccounting(r.k.Now())
	if s.Mac.Stats().DataSent != 0 || s.Radio.Stats().TxFrames != 0 {
		t.Fatalf("statistics survived reset")
	}
	if s.Ledger.Meter(platform.ComponentMCU).TimeIn(platform.StateMCUActive) != 0 {
		t.Fatalf("MCU active time survived reset")
	}
	// Energy integrates fresh from the reset instant.
	r.k.RunUntil(2*sim.Second + 60*sim.Millisecond)
	rep := s.FinalizeEnergy(r.k.Now())
	c, _ := rep.Component(platform.ComponentRadio)
	var residency sim.Time
	for _, sr := range c.States {
		residency += sr.Time
	}
	if residency > 61*sim.Millisecond {
		t.Fatalf("post-reset residency %v exceeds window", residency)
	}
}

func TestStartWithoutAppPanics(t *testing.T) {
	r := newRig(t)
	s := NewSensor(r.k, r.ch, r.tracer, staticNode(1))
	defer func() {
		if recover() == nil {
			t.Fatalf("Start without app did not panic")
		}
	}()
	s.Start()
}

func TestDoubleAttachPanics(t *testing.T) {
	r := newRig(t)
	s := r.sensor(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("double AttachApp did not panic")
		}
	}()
	s.AttachApp(func(env app.Env) app.App {
		return app.NewRpeak(env, app.RpeakConfig{
			Signal: ecg.NewGenerator(ecg.Params{HeartRateBPM: 75}),
		})
	})
}

func TestSensorOptions(t *testing.T) {
	r := newRig(t)
	cfg := staticNode(7)
	cfg.ClockDriftPPM = 250
	cfg.Plan = packet.PlanForNetwork(3)
	s := NewSensor(r.k, r.ch, r.tracer, cfg, WithName("limb-node"))
	if s.Name != "limb-node" || s.Radio.Name() != "limb-node" {
		t.Fatalf("name option not applied: %q", s.Name)
	}
	if s.ID != 7 {
		t.Fatalf("sensor ID %d, want the config's 7", s.ID)
	}
}

func TestBaseOptionPlanAndName(t *testing.T) {
	k := sim.NewKernel(2)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	b := NewBase(k, ch, tracer, mac.BSConfig{
		Protocol: mac.ProtoStatic, StaticCycle: 30 * sim.Millisecond, Plan: packet.PlanForNetwork(4),
	}, WithBaseName("bs4"))
	if b.Name != "bs4" || b.Radio.Name() != "bs4" {
		t.Fatalf("base name option not applied: %q", b.Name)
	}
	if b.Profile.Name != platform.BaseStation().Name {
		t.Fatalf("base profile %q, want the base-station hardware", b.Profile.Name)
	}
}

func TestBaseFinalize(t *testing.T) {
	r := newRig(t)
	r.k.Schedule(0, func(*sim.Kernel) { r.base.Start() })
	r.k.RunUntil(sim.Second)
	rep := r.base.FinalizeEnergy(r.k.Now())
	c, ok := rep.Component(platform.ComponentRadio)
	if !ok || c.EnergyJ <= 0 {
		t.Fatalf("bs radio energy missing")
	}
	r.base.ResetAccounting(r.k.Now())
	if r.base.BS.Stats().BeaconsSent != 0 {
		t.Fatalf("bs stats survived reset")
	}
}
