package battery

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestUsableEnergy(t *testing.T) {
	b := Battery{CapacityMAh: 1000, VoltageV: 3.0, Efficiency: 1.0}
	// 1 Ah at 3 V = 3 Wh = 10800 J.
	if got := b.UsableJ(); math.Abs(got-10800) > 1e-6 {
		t.Fatalf("UsableJ = %v, want 10800", got)
	}
}

func TestDefaultEfficiency(t *testing.T) {
	b := Battery{CapacityMAh: 1000, VoltageV: 3.0}
	if got := b.UsableJ(); math.Abs(got-10800*0.85) > 1e-6 {
		t.Fatalf("UsableJ = %v, want %v", got, 10800*0.85)
	}
}

func TestLifetime(t *testing.T) {
	b := Battery{CapacityMAh: 100, VoltageV: 3.0, Efficiency: 1.0}
	// 1080 J usable; 1 J per 60 s window = 16.7 mW -> 64800 s.
	life, err := b.Lifetime(1.0, 60*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(life.Seconds()-64800) > 1 {
		t.Fatalf("lifetime = %v s, want 64800", life.Seconds())
	}
	if math.Abs(Days(life)-0.75) > 0.001 {
		t.Fatalf("Days = %v, want 0.75", Days(life))
	}
}

func TestLifetimeErrors(t *testing.T) {
	b := CR2032()
	if _, err := b.Lifetime(0, sim.Second); err == nil {
		t.Fatalf("zero energy accepted")
	}
	if _, err := b.Lifetime(1, 0); err == nil {
		t.Fatalf("zero window accepted")
	}
}

func TestStockCells(t *testing.T) {
	if CR2032().UsableJ() <= 0 || LiPo160().UsableJ() <= 0 {
		t.Fatalf("stock cells empty")
	}
	// Energy ordering: the LiPo at 3.7 V holds more usable energy.
	if LiPo160().UsableJ() <= CR2032().UsableJ()*0.8 {
		t.Fatalf("implausible cell energies")
	}
}

func TestPreset(t *testing.T) {
	for name, want := range map[string]Battery{"cr2032": CR2032(), "lipo160": LiPo160()} {
		if got, ok := Preset(name); !ok || got != want {
			t.Errorf("Preset(%q) = %+v, %v; want %+v, true", name, got, ok, want)
		}
	}
	for _, name := range []string{"", "CR2032", "aa"} {
		if _, ok := Preset(name); ok {
			t.Errorf("Preset(%q) accepted an unknown cell", name)
		}
	}
}

func TestLowerLoadLastsLonger(t *testing.T) {
	b := CR2032()
	hi, _ := b.Lifetime(0.7108, 60*sim.Second) // streaming node
	lo, _ := b.Lifetime(0.2462, 60*sim.Second) // on-node rpeak
	if lo <= hi {
		t.Fatalf("lower load must last longer: %v <= %v", lo, hi)
	}
	// The ratio equals the energy ratio.
	if math.Abs(float64(lo)/float64(hi)-0.7108/0.2462) > 0.01 {
		t.Fatalf("lifetime ratio mismatch")
	}
}
