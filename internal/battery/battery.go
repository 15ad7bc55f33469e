// Package battery models the node's energy store — the paper's
// motivation is autonomy ("replacement of power supplies in patients can
// be a very tedious and unpleasant task"), so the framework converts the
// simulated power draw into battery-lifetime projections.
//
// The model is a coulomb counter with a usable-capacity derating: BAN
// nodes run from small lithium coin or pouch cells whose usable charge
// shrinks at high average discharge rates; a fixed efficiency factor
// captures that to first order, which is the granularity the platform
// numbers justify.
package battery

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/sim"
)

// Battery describes one energy store.
type Battery struct {
	// CapacityMAh is the rated charge.
	CapacityMAh float64
	// VoltageV is the nominal terminal voltage.
	VoltageV float64
	// Efficiency derates the rated capacity to the usable fraction
	// (conversion losses + rate effects); 0 selects 0.85.
	Efficiency float64
}

// Cell ratings, named with their unit (banlint/unitconst): the numbers
// come from the respective datasheets.
const (
	cr2032CapacityMAh  = 220
	cr2032VoltageV     = 3.0
	lipo160CapacityMAh = 160
	lipo160VoltageV    = 3.7
	// defaultEfficiency derates rated to usable capacity (conversion
	// losses + rate effects), dimensionless.
	defaultEfficiency = 0.85
)

// CR2032 returns a 220 mAh lithium coin cell, a typical wearable-node
// supply.
func CR2032() Battery {
	return Battery{CapacityMAh: cr2032CapacityMAh, VoltageV: cr2032VoltageV, Efficiency: defaultEfficiency}
}

// LiPo160 returns a small 160 mAh lithium-polymer pouch cell like the
// one on the IMEC node.
func LiPo160() Battery {
	return Battery{CapacityMAh: lipo160CapacityMAh, VoltageV: lipo160VoltageV, Efficiency: defaultEfficiency}
}

// Preset returns the cell a scenario or a flag names, "cr2032" or
// "lipo160"; ok is false for any other name.
func Preset(name string) (b Battery, ok bool) {
	switch name {
	case "cr2032":
		return CR2032(), true
	case "lipo160":
		return LiPo160(), true
	}
	return Battery{}, false
}

// UsableJ reports the usable energy in joules.
func (b Battery) UsableJ() float64 {
	eff := b.Efficiency
	if approx.Unset(eff) {
		eff = defaultEfficiency
	}
	return b.CapacityMAh / 1e3 * 3600 * b.VoltageV * eff
}

// Lifetime projects how long the battery sustains a load that consumed
// energyJ joules over the given window.
func (b Battery) Lifetime(energyJ float64, window sim.Time) (sim.Time, error) {
	if energyJ <= 0 || window <= 0 {
		return 0, fmt.Errorf("battery: need positive energy and window")
	}
	powerW := energyJ / window.Seconds()
	seconds := b.UsableJ() / powerW
	return sim.Time(seconds * float64(sim.Second)), nil
}

// Days is a convenience formatter for lifetime projections.
func Days(t sim.Time) float64 { return t.Seconds() / 86400 }
