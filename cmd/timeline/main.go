// Command timeline prints the TDMA protocol timelines of the paper's
// Figures 2 (static) and 3 (dynamic) from an actual simulation trace:
// beacons (SB), slot requests (SSRi), grants, slot creation and the data
// exchanges, as two nodes join a running network. The scenario is
// experiments.Timeline, the one its tests check.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mac"
	"repro/internal/sim"
)

// captions holds each protocol's title and legend.
var captions = map[mac.Protocol]string{
	mac.ProtoStatic:  "FIGURE 2 — static TDMA timeline\n" + tdmaLegend,
	mac.ProtoDynamic: "FIGURE 3 — dynamic TDMA timeline\n" + tdmaLegend,
	mac.ProtoCSMA: "Slotted CSMA/CA timeline\n" +
		"(beacons pace the contention windows; CCA then BEB backoff arbitrates each data burst)",
	mac.ProtoLPL: "Preamble-sampling LPL timeline\n" +
		"(strobe trains wake the duty-cycled base station; an early ack truncates the train)",
}

const tdmaLegend = "(SB = beacon slot, SSRi = slot request, Si = assigned slot, RB = beacon reception)"

func main() {
	var (
		macName  = flag.String("mac", "static", "MAC protocol: static | dynamic | csma | lpl")
		horizon  = flag.Duration("duration", 0, "simulated time to trace (default 550ms, 950ms with -crash, 2.6s with -degrade)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		crash    = flag.Bool("crash", false, "crash node 1 mid-trace and reboot it, to show the recovery sequence")
		degrade  = flag.Bool("degrade", false, "run the nodes on nearly-empty cells, to show the graceful-degradation cascade down to brownout")
		traceOut = flag.String("trace-out", "", "also write the timeline as Chrome trace_event JSON (open in chrome://tracing)")
	)
	flag.Parse()

	proto := mac.Protocol(*macName)
	cfg := experiments.Timeline{Protocol: proto, Seed: *seed, Crash: *crash, Degrade: *degrade}.Config()
	if *horizon > 0 {
		cfg.Duration = sim.FromDuration(*horizon) - cfg.Warmup
	}
	res, err := core.Run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n\n", captions[proto])
	fmt.Print(res.Trace.Render())

	if *traceOut != "" {
		if err := res.Trace.WriteChromeTraceFile(*traceOut); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "timeline: "+format+"\n", args...)
	os.Exit(1)
}
