// Command timeline prints the TDMA protocol timelines of the paper's
// Figures 2 (static) and 3 (dynamic) from an actual simulation trace:
// beacons (SB), slot requests (SSRi), grants, slot creation and the data
// exchanges, as two nodes join a running network.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/app"
	"repro/internal/battery"
	"repro/internal/channel"
	"repro/internal/ecg"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The -degrade trace cell, sized so a CR2032-voltage battery holding a
// few millijoules drains through the whole degradation cascade within
// the two-second trace window.
const (
	traceCellCapacityMAh = 4e-3
	traceCellVoltageV    = 3.0
)

func main() {
	var (
		macName  = flag.String("mac", "static", "MAC protocol: static | dynamic | csma | lpl")
		horizon  = flag.Duration("duration", 0, "simulated time to trace (default 400ms)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		crash    = flag.Bool("crash", false, "crash node 1 mid-trace and reboot it, to show the recovery sequence")
		degrade  = flag.Bool("degrade", false, "run the nodes on nearly-empty cells, to show the graceful-degradation cascade down to brownout")
		traceOut = flag.String("trace-out", "", "also write the timeline as Chrome trace_event JSON (open in chrome://tracing)")
	)
	flag.Parse()

	proto := mac.Protocol(*macName)
	var figure, legend string
	switch proto {
	case mac.ProtoStatic:
		figure = "FIGURE 2 — static TDMA timeline"
		legend = "(SB = beacon slot, SSRi = slot request, Si = assigned slot, RB = beacon reception)"
	case mac.ProtoDynamic:
		figure = "FIGURE 3 — dynamic TDMA timeline"
		legend = "(SB = beacon slot, SSRi = slot request, Si = assigned slot, RB = beacon reception)"
	case mac.ProtoCSMA:
		figure = "Slotted CSMA/CA timeline"
		legend = "(beacons pace the contention windows; CCA then BEB backoff arbitrates each data burst)"
	case mac.ProtoLPL:
		figure = "Preamble-sampling LPL timeline"
		legend = "(strobe trains wake the duty-cycled base station; an early ack truncates the train)"
	default:
		fmt.Fprintf(os.Stderr, "timeline: unknown MAC %q (registered: %v)\n", *macName, mac.Protocols())
		os.Exit(1)
	}

	until := sim.FromDuration(*horizon)
	if until <= 0 {
		until = 400 * sim.Millisecond
		if *crash {
			until = 800 * sim.Millisecond // room for the crash + rejoin
		}
		if *degrade {
			until = 2 * sim.Second // room for the full cascade to brownout
		}
	}

	k := sim.NewKernel(*seed)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	bsCfg := mac.BSConfig{Protocol: proto, StaticCycle: 60 * sim.Millisecond}
	if *crash {
		// Reclaim after 8 silent cycles: longer than the streaming app's
		// inter-frame gap (so a live node is never reclaimed) but quick
		// enough that the trace shows the base station freeing the dead
		// node's slot before the reboot.
		bsCfg.ReclaimAfter = 8
	}
	base := node.NewBase(k, ch, tracer, bsCfg)
	sig := ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, Seed: *seed})

	var first *node.Sensor
	for i := 0; i < 2; i++ {
		var opts []node.Option
		if *degrade {
			// A nearly-empty cell: the cascade — stretch, downshift,
			// beacon-only parking, brownout — plays out inside the trace.
			cell := battery.Battery{CapacityMAh: traceCellCapacityMAh, VoltageV: traceCellVoltageV}
			policy := battery.DefaultDegradePolicy()
			opts = append(opts, node.WithBattery(cell, 0, &policy))
		}
		s := node.NewSensor(k, ch, tracer,
			mac.NodeConfig{Protocol: proto, NodeID: uint8(i + 1), Profile: platform.IMEC()}, opts...)
		s.AttachApp(func(env app.Env) app.App {
			return app.NewStreaming(env, app.StreamingConfig{
				SampleRateHz: 100, Channels: 2, Signal: sig,
			})
		})
		// Stagger the joins so the figures' SSRi -> Si sequences are
		// visible one at a time, as drawn in the paper.
		at := sim.Time(i)*150*sim.Millisecond + 5*sim.Millisecond
		sn := s
		k.ScheduleAt(at, func(*sim.Kernel) { sn.Start() })
		if i == 0 {
			first = s
		}
	}
	k.Schedule(0, func(*sim.Kernel) { base.Start() })
	if *crash {
		// Kill node 1 once both nodes are in steady state, and cold-boot
		// it after the base station has reclaimed its slot: the trace
		// shows the crash, the silent slots, the reclaim (with the
		// dynamic cycle shrinking) and the full SSR-based rejoin.
		k.ScheduleAt(400*sim.Millisecond, func(*sim.Kernel) { first.Crash() })
		k.ScheduleAt(660*sim.Millisecond, func(*sim.Kernel) { first.Reboot() })
	}
	k.RunUntil(until)

	fmt.Println(figure)
	fmt.Println(legend)
	fmt.Println()
	fmt.Print(tracer.Render())

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
			os.Exit(1)
		}
		if err := metrics.WriteChromeTrace(f, tracer.Events()); err != nil {
			fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
			os.Exit(1)
		}
	}
}
