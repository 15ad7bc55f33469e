package core

import (
	"repro/internal/battery"
	"repro/internal/metrics"
)

// assembleMetrics builds the structured observability snapshot from an
// assembled Results value: per-(node, component, state) residency rows
// from the energy reports, the trace-derived counters and latency
// histograms, plus the MAC/radio/channel statistics as namespaced
// counters. Everything comes from data the run already produced, so
// enabling metrics cannot perturb the simulation.
func assembleMetrics(res *Results) *metrics.Snapshot {
	energies := make([]metrics.NodeEnergy, 0, len(res.Nodes)+1)
	energies = append(energies, metrics.NodeEnergy{Node: "bs", Report: res.BSEnergy})
	var extraStates []metrics.StateRow
	var extra []metrics.CounterRow
	for _, nr := range res.Nodes {
		energies = append(energies, metrics.NodeEnergy{Node: nr.Name, Report: nr.Energy})
		if rep := nr.Battery; rep != nil {
			// Per-degradation-level residency and consumption, plus a
			// residual-charge row, rendered alongside the component state
			// rows so one snapshot carries the whole energy story.
			for lvl := 0; lvl < battery.NumLevels; lvl++ {
				if rep.TimeIn[lvl] == 0 && rep.UsedJ[lvl] <= 0 {
					continue
				}
				extraStates = append(extraStates, metrics.StateRow{
					Node:      nr.Name,
					Component: "battery",
					State:     battery.Level(lvl).String(),
					Time:      rep.TimeIn[lvl],
					EnergyMJ:  rep.UsedJ[lvl] * 1e3,
				})
			}
			extraStates = append(extraStates, metrics.StateRow{
				Node:      nr.Name,
				Component: "battery",
				State:     "residual",
				EnergyMJ:  rep.RemainingJ * 1e3,
			})
			var browned uint64
			if rep.Died {
				browned = 1
			}
			extra = appendStats(extra, nr.Name,
				stat{"battery.brownouts", browned},
				stat{"battery.level-transitions", rep.Transitions})
		}
		extra = appendStats(extra, nr.Name,
			stat{"mac.beacons-heard", nr.Mac.BeaconsHeard},
			stat{"mac.beacons-missed", nr.Mac.BeaconsMissed},
			stat{"mac.ssr-sent", nr.Mac.SSRSent},
			stat{"mac.data-sent", nr.Mac.DataSent},
			stat{"mac.data-acked", nr.Mac.DataAcked},
			stat{"mac.data-dropped", nr.Mac.DataDropped},
			stat{"mac.ack-missed", nr.Mac.AckMissed},
			stat{"mac.retries", nr.Mac.Retries},
			stat{"mac.queue-drops", nr.Mac.QueueDrops},
			stat{"mac.rejoins", nr.Mac.Rejoins},
			stat{"mac.slots-skipped", nr.Mac.SlotsSkipped},
			stat{"mac.releases-sent", nr.Mac.ReleasesSent},
			stat{"radio.tx-frames", nr.Radio.TxFrames},
			stat{"radio.rx-accepted", nr.Radio.RxAccepted},
			stat{"radio.crc-drops", nr.Radio.CRCDrops},
			stat{"radio.addr-drops", nr.Radio.AddrDrops},
			stat{"app.packets-sent", nr.PacketsSent},
			stat{"app.packets-dropped", nr.PacketsDropped},
			stat{"app.beats", nr.Beats})
	}
	extra = appendStats(extra, "bs",
		stat{"bs.beacons-sent", res.BSStats.BeaconsSent},
		stat{"bs.data-received", res.BSStats.DataReceived},
		stat{"bs.acks-sent", res.BSStats.AcksSent},
		stat{"bs.ssr-received", res.BSStats.SSRReceived},
		stat{"bs.ssr-rejected", res.BSStats.SSRRejected},
		stat{"bs.stray-frames", res.BSStats.StrayFrames},
		stat{"bs.slots-reclaimed", res.BSStats.SlotsReclaimed},
		stat{"bs.slots-released", res.BSStats.SlotsReleased})
	extra = appendStats(extra, "channel",
		stat{"channel.transmissions", res.Channel.Transmissions},
		stat{"channel.collisions", res.Channel.Collisions},
		stat{"channel.deliveries", res.Channel.Deliveries},
		stat{"channel.corrupt-copies", res.Channel.CorruptCopies},
		stat{"channel.missed-start", res.Channel.MissedStart},
		stat{"channel.jammed-frames", res.Channel.JammedFrames},
		stat{"channel.truncated", res.Channel.Truncated},
		stat{"channel.blackout-drops", res.Channel.BlackoutDrops})
	return metrics.Assemble(res.Trace, energies, extraStates, extra, res.KernelEvents)
}

// stat is one named component statistic; the name carries its
// namespace ("mac.retries").
type stat struct {
	name  string
	value uint64
}

// appendStats appends a node's statistics to rows as counter rows,
// skipping zero values to keep snapshots dense.
func appendStats(rows []metrics.CounterRow, node string, stats ...stat) []metrics.CounterRow {
	for _, st := range stats {
		if st.value != 0 {
			rows = append(rows, metrics.CounterRow{Node: node, Name: st.name, Value: st.value})
		}
	}
	return rows
}
