// Quickstart: simulate a single ECG sensor node streaming two channels to
// a base station over static TDMA for ten seconds, and print where the
// energy went.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/sim"
)

func main() {
	res, err := core.Run(core.Config{
		Protocol:     mac.ProtoStatic,
		Nodes:        1,
		Cycle:        30 * sim.Millisecond,
		App:          core.AppStreaming,
		SampleRateHz: 205,
		Duration:     10 * sim.Second,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}

	n := res.Node()
	fmt.Printf("node %s over 10 s (joined: %v)\n", n.Name, res.JoinedAll)
	fmt.Printf("  radio: %6.2f mJ\n", n.RadioMJ())
	fmt.Printf("  mcu:   %6.2f mJ\n", n.MCUMJ())
	fmt.Printf("  asic:  %6.2f mJ\n", n.ASICMJ())
	fmt.Printf("  total: %6.2f mJ\n\n", n.Energy.TotalMJ())

	fmt.Println("radio losses (the paper's §4.2 categories):")
	for _, cat := range energy.AllLossCategories() {
		fmt.Printf("  %-16s %8.3f mJ\n", cat, n.Energy.Losses[cat]*1e3)
	}

	fmt.Printf("\nprotocol: %d beacons, %d data frames sent, %d acked\n",
		n.Mac.BeaconsHeard, n.Mac.DataSent, n.Mac.DataAcked)
	fmt.Printf("base station received %d frames\n", res.BSStats.DataReceived)
}
