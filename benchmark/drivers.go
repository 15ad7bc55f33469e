package main

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/simbench"
	"repro/internal/tinyos"
)

// driverReps is how many times each driver runs; its metrics are medians.
const driverReps = 11

// driver times one layer's public functions from outside the simulator.
// run performs one repetition and returns how many operations it did.
type driver struct {
	name   string // metric prefix
	unit   string // the operation ns and allocs are per: "" for a call
	allocs bool   // also report allocations per operation
	run    func() (uint64, error)
}

var sink uint64

// drivers builds the per-call drivers; inputs derive from seed.
func drivers(seed int64) []driver {
	gen := ecg.NewGenerator(ecg.Params{HeartRateBPM: 75, JitterFrac: 0.02, NoiseAmp: 0.02,
		BaselineAmp: 0.05, Seed: seed})
	ecgSamples := make([]codec.Sample, 40000)
	for i := range ecgSamples {
		ecgSamples[i] = gen.SampleAt(0, int64(i), 200)
	}
	payload := ecgSamples[:12]
	frame := packet.Frame{Dest: packet.AddrBSData, Payload: codec.Pack(payload)}
	nodes := []string{"bs", "node1", "node2", "node3", "node4", "node5"}
	kinds := []metrics.Kind{metrics.KindBeaconRx, metrics.KindSlotStart, metrics.KindDataTx, metrics.KindAckRx}

	// onMCU builds a fresh kernel and microcontroller, then calls each
	// n times, draining the kernel after every call; done must run once
	// per call.
	onMCU := func(n int, each func(s *tinyos.Sched, done func())) (uint64, error) {
		k := sim.NewKernel(seed)
		s := tinyos.NewSched(k, mcu.New(k, platform.IMEC().MCU, energy.NewLedger()), 0)
		var ran int
		done := func() { ran++ }
		for i := 0; i < n; i++ {
			each(s, done)
			k.Run()
		}
		if ran != n {
			return 0, errors.New("completion callbacks lost")
		}
		return uint64(n), nil
	}

	return []driver{
		{name: "sim.kernel", unit: "event", allocs: true, run: func() (uint64, error) {
			return simbench.Run(sim.NewKernel(seed), simbench.Reference()).Executed, nil
		}},
		{name: "ecg.sample", run: func() (uint64, error) {
			const n = 10000
			for i := 0; i < n; i++ {
				sink += uint64(gen.SampleAt(i&1, int64(i), 205))
			}
			return n, nil
		}},
		{name: "ecg.detect", run: func() (uint64, error) {
			d := ecg.NewDetector(200)
			for _, s := range ecgSamples {
				sink += uint64(d.Push(s))
			}
			if d.Beats() == 0 {
				return 0, errors.New("detector found no beat")
			}
			return uint64(len(ecgSamples)), nil
		}},
		{name: "codec.pack", run: func() (uint64, error) {
			const n = 50000
			for i := 0; i < n; i++ {
				sink += uint64(codec.Pack(payload)[i%18])
			}
			return n, nil
		}},
		{name: "packet.roundtrip", run: func() (uint64, error) {
			const n = 20000
			buf := make([]byte, 0, frame.EncodedBytes())
			for i := 0; i < n; i++ {
				f, ok, err := packet.DecodeInPlace(frame.AppendEncode(buf[:0]))
				if err != nil || !ok || f.Dest != frame.Dest {
					return 0, errors.New("frame did not survive encode and decode")
				}
			}
			return n, nil
		}},
		{name: "energy.transition", run: func() (uint64, error) {
			const n = 100000
			r := platform.IMEC().Radio
			states := [2]energy.State{platform.StateRadioRX, platform.StateRadioStandby}
			m := energy.NewMeter(platform.ComponentRadio, map[energy.State]energy.Draw{
				platform.StateRadioRX:      {CurrentA: r.RxA, VoltageV: r.VoltageV},
				platform.StateRadioStandby: {CurrentA: r.StandbyA, VoltageV: r.VoltageV}})
			m.Start(0, platform.StateRadioStandby)
			for i := 1; i <= n; i++ {
				m.Transition(sim.Time(i), states[i&1])
			}
			return n, nil
		}},
		{name: "metrics.record", allocs: true, run: func() (uint64, error) {
			const n = 50000
			r := metrics.NewRecorder(200000)
			for i := 0; i < n; i++ {
				r.Record(sim.Time(i), nodes[i%len(nodes)], kinds[i%len(kinds)], "")
			}
			return n, nil
		}},
		{name: "tinyos.post", allocs: true, run: func() (uint64, error) {
			return onMCU(10000, func(s *tinyos.Sched, done func()) { s.PostFn("task", 100, done) })
		}},
		{name: "mcu.exec", allocs: true, run: func() (uint64, error) {
			return onMCU(10000, func(s *tinyos.Sched, done func()) { s.MCU().Exec(100, done) })
		}},
	}
}

// runDrivers times every driver and returns its metrics: <name>_ns (or
// <name>_ns_per_<unit>) and, where asked, the matching _allocs.
func runDrivers(seed int64, record func(error)) map[string]metric {
	out := map[string]metric{}
	for _, d := range drivers(seed) {
		var ns, allocs []float64
		for r := 0; r < driverReps; r++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			start := time.Now()
			ops, err := d.run()
			wall := time.Since(start)
			runtime.ReadMemStats(&m1)
			record(err)
			if err != nil || ops == 0 {
				continue
			}
			ns = append(ns, float64(wall.Nanoseconds())/float64(ops))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
		}
		if len(ns) == 0 {
			continue
		}
		suffix, per := "", "op"
		if d.unit != "" {
			suffix, per = "_per_"+d.unit, d.unit
		}
		out[d.name+"_ns"+suffix] = metric{median(ns), "ns/" + per}
		if d.allocs {
			out[d.name+"_allocs"+suffix] = metric{median(allocs), "allocs/" + per}
		}
	}
	return out
}
