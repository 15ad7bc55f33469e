// Dynamic TDMA join dynamics: power five Rpeak nodes on one at a time
// against a dynamic-TDMA base station and watch the cycle grow from SB+ES
// to six slots (the run-time behaviour behind Figure 3), on a channel
// with bit errors so the CRC/retransmission machinery is visible.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func main() {
	res, err := core.Run(core.Config{
		Protocol:     mac.ProtoDynamic,
		Nodes:        5,
		App:          core.AppRpeak,
		SampleRateHz: 200,
		Duration:     30 * sim.Second,
		Warmup:       10 * sim.Millisecond, // measure from power-on: joins included
		StartStagger: 500 * sim.Millisecond,
		Seed:         3,
		BER:          5e-5,
		TraceLimit:   core.DefaultTraceRing, // the timeline below reads the ring
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Dynamic TDMA: five nodes joining a running network (500 ms apart)")
	fmt.Println()
	fmt.Println("cycle growth (from the base station's beacon builder):")
	for _, e := range res.Trace.Filter(metrics.KindCycleGrow) {
		fmt.Printf("  %s\n", e.String())
	}
	fmt.Println()
	fmt.Println("join handshakes:")
	for _, e := range res.Trace.Filter(metrics.KindJoined) {
		fmt.Printf("  %s\n", e.String())
	}

	fmt.Println()
	fmt.Printf("%-7s %10s %9s %8s %8s %9s %8s\n",
		"node", "radio(mJ)", "uC(mJ)", "sent", "acked", "ackMiss", "retries")
	for _, n := range res.Nodes {
		fmt.Printf("%-7s %10.1f %9.1f %8d %8d %9d %8d\n",
			n.Name, n.RadioMJ(), n.MCUMJ(),
			n.Mac.DataSent, n.Mac.DataAcked, n.Mac.AckMissed, n.Mac.Retries)
	}

	fmt.Println()
	fmt.Printf("channel: %d transmissions, %d collisions, %d corrupted copies\n",
		res.Channel.Transmissions, res.Channel.Collisions, res.Channel.CorruptCopies)
	fmt.Printf("base station: %d slot requests (%d rejected), cycle now %d slots\n",
		res.BSStats.SSRReceived, res.BSStats.SSRRejected, res.Config.Nodes+1)
	fmt.Println()
	fmt.Println("Early joiners pay for the later arrivals: every join stretches the")
	fmt.Println("cycle, so per-cycle beacon overhead amortises over more time — exactly")
	fmt.Println("the trend of the paper's Tables 2 and 4.")
}
