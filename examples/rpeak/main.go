// On-node preprocessing study (the paper's §5.2 and Figure 4): compare
// streaming the raw 2-channel ECG against running the R-peak detector on
// the node and transmitting only beat events — then project what the
// difference means in battery life.
package main

import (
	"fmt"
	"log"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/sim"
)

func run(app core.AppKind, cycle sim.Time, fs float64) core.NodeResult {
	res, err := core.Run(core.Config{
		Protocol:     mac.ProtoStatic,
		Nodes:        5,
		Cycle:        cycle,
		App:          app,
		SampleRateHz: fs,
		HeartRateBPM: 75,
		Duration:     60 * sim.Second,
		Seed:         11,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Node()
}

func main() {
	// Base-station-side Rpeak: the node must stream 200 Hz x 2ch raw ECG,
	// which forces a 30 ms TDMA cycle (18-byte payloads).
	stream := run(core.AppStreaming, 30*sim.Millisecond, 205)
	// On-node Rpeak: beats arrive at heart rate, so a 120 ms cycle is
	// plenty.
	rpeak := run(core.AppRpeak, 120*sim.Millisecond, 200)

	fmt.Println("Where should the R-peak algorithm run? (60 s window, 5-node BAN)")
	fmt.Println()
	fmt.Printf("%-28s %12s %10s %10s\n", "", "radio (mJ)", "uC (mJ)", "total")
	fmt.Printf("%-28s %12.1f %10.1f %10.1f\n",
		"stream raw ECG (30ms cycle)", stream.RadioMJ(), stream.MCUMJ(), stream.TotalMJ())
	fmt.Printf("%-28s %12.1f %10.1f %10.1f\n",
		"Rpeak on node (120ms cycle)", rpeak.RadioMJ(), rpeak.MCUMJ(), rpeak.TotalMJ())
	saving := 1 - rpeak.TotalMJ()/stream.TotalMJ()
	fmt.Printf("\nenergy saving: %.0f%%   (paper: 65%%, from 710.8 to 246.2 mJ)\n", saving*100)
	fmt.Printf("beats detected on node: %d (2 channels x 75 bpm x 60 s)\n\n", rpeak.Beats)

	// What autonomy means: radio+uC load on a 160 mAh LiPo (the ASIC's
	// constant 10.5 mW is common to both configurations; include it for
	// a whole-node projection).
	cell := battery.LiPo160()
	for _, c := range []struct {
		name string
		n    core.NodeResult
	}{
		{"streaming", stream},
		{"on-node Rpeak", rpeak},
	} {
		wholeNodeJ := (c.n.TotalMJ() + c.n.ASICMJ()) / 1e3
		life, err := cell.Lifetime(wholeNodeJ, 60*sim.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("battery life (%s, 160 mAh LiPo, whole node): %.1f days\n",
			c.name, battery.Days(life))
	}
}
