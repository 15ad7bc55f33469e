// ECG streaming design-space sweep: explore how the sampling frequency
// and TDMA cycle trade off node energy, the exploration the paper's
// Table 1 freezes at four points. The tool the paper argues for is
// exactly this: tuning node parameters in simulation before touching
// hardware.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/sim"
)

func main() {
	fmt.Println("ECG streaming node energy vs sampling frequency (5-node static TDMA, 60 s)")
	fmt.Println()
	fmt.Printf("%8s %9s %12s %10s %10s %12s %14s\n",
		"F (Hz)", "cycle", "radio (mJ)", "uC (mJ)", "total", "pkts sent", "avg power (mW)")

	// The cycle follows the payload geometry: 2 channels x F x cycle =
	// 12 samples (one 18-byte packet per cycle).
	for _, fs := range []float64{25, 55, 70, 105, 150, 205, 300} {
		cycleSec := 12.0 / (2 * fs)
		cycle := sim.Time(cycleSec * float64(sim.Second))
		res, err := core.Run(core.Config{
			Protocol:     mac.ProtoStatic,
			Nodes:        5,
			Cycle:        cycle,
			App:          core.AppStreaming,
			SampleRateHz: fs,
			Duration:     60 * sim.Second,
			Seed:         7,
		})
		if err != nil {
			log.Fatal(err)
		}
		n := res.Node()
		total := n.RadioMJ() + n.MCUMJ()
		fmt.Printf("%8.0f %8.1fms %12.1f %10.1f %10.1f %12d %14.3f\n",
			fs, cycle.Milliseconds(), n.RadioMJ(), n.MCUMJ(), total,
			n.Mac.DataSent, total/60)
	}

	fmt.Println()
	fmt.Println("Radio energy scales with 1/cycle (one beacon listen + one packet per")
	fmt.Println("cycle); the microcontroller adds a linear-in-F sampling term on top of")
	fmt.Println("its 110.9 mJ power-save floor. Higher diagnostic fidelity costs watts.")
}
