// BAN coexistence study: two patients' Body Area Networks share the same
// 2.4 GHz channel (two people in one hospital room). Each BAN uses its
// own address plan, so the nRF2401 address filters keep the networks
// logically separate — but their frames still collide on the air and are
// overheard at full receive-energy cost. This is the "impact of
// topologies" exploration the paper's conclusions call out.
//
// The BANs run free-running 30 ms cycles whose relative phase slowly
// slides (their base stations' cycles differ by a small offset), so the
// run sweeps through aligned and interleaved beacon phases.
package main

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/channel"
	"repro/internal/ecg"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
)

// buildBAN assembles one network (base station + nodes) on the shared
// medium under its own address plan.
func buildBAN(k *sim.Kernel, ch *channel.Channel, tracer *metrics.Recorder,
	netID uint8, nodes int, cycle sim.Time, startAt sim.Time) (*node.Base, []*node.Sensor) {
	plan := packet.PlanForNetwork(netID)
	bs := node.NewBase(k, ch, tracer,
		mac.BSConfig{Protocol: mac.ProtoStatic, StaticCycle: cycle, Plan: plan},
		node.WithBaseName(fmt.Sprintf("bs%d", netID)))
	sig := ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, Seed: int64(netID)})
	prof := platform.IMEC()
	var sensors []*node.Sensor
	for i := 0; i < nodes; i++ {
		id := uint8(i + 1)
		s := node.NewSensor(k, ch, tracer,
			mac.NodeConfig{Protocol: mac.ProtoStatic, NodeID: id, Profile: &prof, Plan: plan},
			node.WithName(fmt.Sprintf("n%d.%d", netID, id)))
		s.AttachApp(func(env app.Env) app.App {
			return app.NewStreaming(env, app.StreamingConfig{
				SampleRateHz: 205, Channels: 2, Signal: sig,
			})
		})
		sensors = append(sensors, s)
		at := startAt + sim.Time(i+1)*5*sim.Millisecond
		sn := s
		k.ScheduleAt(at, func(*sim.Kernel) { sn.Start() })
	}
	k.ScheduleAt(startAt, func(*sim.Kernel) { bs.Start() })
	return bs, sensors
}

func run(twoBANs bool) (radioMJ, collisions, retries float64) {
	k := sim.NewKernel(9)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(1)

	_, sensorsA := buildBAN(k, ch, tracer, 0, 3, 30*sim.Millisecond, 0)
	if twoBANs {
		// The second BAN's cycle is 40 us longer: the beacon phases
		// slide through every alignment during the run.
		buildBAN(k, ch, tracer, 1, 3, 30*sim.Millisecond+40*sim.Microsecond, 7*sim.Millisecond)
	}

	warmup := 3 * sim.Second
	k.RunUntil(warmup)
	for _, s := range sensorsA {
		s.ResetAccounting(k.Now())
	}
	k.RunUntil(warmup + 60*sim.Second)

	n := sensorsA[0]
	rep := n.FinalizeEnergy(k.Now())
	c, _ := rep.Component(platform.ComponentRadio)
	st := n.Mac.Stats()
	return c.EnergyMJ(), float64(ch.Stats().Collisions), float64(st.Retries)
}

func main() {
	solo, _, _ := run(false)
	both, collisions, retries := run(true)

	fmt.Println("Two BANs on one channel (3 streaming nodes each, 30 ms cycles,")
	fmt.Println("sliding phase) — effect on a node of BAN A over 60 s:")
	fmt.Println()
	fmt.Printf("%-34s %10.1f mJ radio\n", "BAN A alone", solo)
	fmt.Printf("%-34s %10.1f mJ radio  (%+.1f%%)\n", "BAN A next to BAN B", both,
		(both-solo)/solo*100)
	fmt.Printf("\nchannel collisions with both active: %.0f\n", collisions)
	fmt.Printf("node A1 retransmissions: %.0f\n", retries)
	fmt.Println()
	fmt.Println("The address filters keep the data streams intact, but cross-network")
	fmt.Println("collisions corrupt frames (CRC drops -> missed acks -> retries) and")
	fmt.Println("every overheard frame costs full receive power. TDMA-within-a-BAN")
	fmt.Println("does not coordinate across BANs — the scheduling problem the")
	fmt.Println("paper's network-level future work points at.")
}
