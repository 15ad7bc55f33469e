// Package asic models the 25-channel ultra-low-power biopotential ASIC
// that acquires the EEG/ECG signals (§3.1). Its power draw is constant
// (10.5 mW at 3.0 V per §5) — which is why the paper's validation tables
// exclude it — but the framework still meters it so whole-node budgets
// are available, and it is the node's sampling engine: a hardware timer
// produces sample-ready events at the configured rate and the enabled
// channels' conversions are handed to the application.
package asic

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Source supplies the physical signal behind the electrodes: it converts
// acquisition i at the front-end's sampling rate, writing the sample of
// channels[j] to out[j].
type Source interface {
	Acquire(channels []int, i int64, out []codec.Sample)
}

// SampleHandler receives one acquisition: the sample index and the
// conversions of the enabled channels, in channel order. It runs in
// hardware-event context; implementations charge their own MCU cycles.
// The samples slice is the front-end's conversion register and is
// overwritten by the next acquisition: copy what must outlive the call.
type SampleHandler func(i int64, samples []codec.Sample)

// Frontend is one ASIC instance.
type Frontend struct {
	k      *sim.Kernel
	params platform.ASICParams
	meter  *energy.Meter

	source   Source
	channels []int
	onSample SampleHandler
	samples  []codec.Sample // conversion register, reused per acquisition
	register [maxChannels]codec.Sample

	// The sample timer: while running, the next acquisition is event
	// next, and each acquisition schedules the one a period later before
	// it converts. onTick is tick, bound once.
	period  sim.Time
	next    sim.EventID
	onTick  sim.Handler
	idx     int64
	running bool
}

// maxChannels is the biopotential ASIC's channel count (§3.1), the size
// of the conversion register.
const maxChannels = 25

// New creates a front-end and registers its meter. The ASIC starts
// powered off.
func New(k *sim.Kernel, params platform.ASICParams, ledger *energy.Ledger) *Frontend {
	meter := ledger.Add(platform.ComponentASIC, map[energy.State]energy.Draw{
		platform.StateASICOn:  {CurrentA: params.PowerW / params.VoltageV, VoltageV: params.VoltageV},
		platform.StateASICOff: {},
	})
	meter.Start(k.Now(), platform.StateASICOff)
	f := &Frontend{k: k, params: params, meter: meter}
	f.onTick = f.tick
	return f
}

// Params reports the front-end's hardware parameters.
func (f *Frontend) Params() platform.ASICParams { return f.params }

// Configure selects the signal source, the enabled channels and the
// sample handler. Must be called before Start. The front-end keeps
// channels: the caller must not change it afterwards.
func (f *Frontend) Configure(src Source, channels []int, h SampleHandler) {
	if len(channels) == 0 || len(channels) > min(f.params.Channels, maxChannels) {
		panic(fmt.Sprintf("asic: %d channels requested, hardware has %d", len(channels), f.params.Channels))
	}
	for _, ch := range channels {
		if ch < 0 || ch >= f.params.Channels {
			panic(fmt.Sprintf("asic: channel %d out of range", ch))
		}
	}
	f.source = src
	f.channels = channels
	f.samples = f.register[:len(channels)]
	f.onSample = h
}

// Start powers the front-end up and begins sampling the enabled channels
// at fs Hz. The first acquisition completes one period after Start.
func (f *Frontend) Start(fs float64) {
	if fs <= 0 {
		panic("asic: sampling rate must be positive")
	}
	if f.source == nil || f.onSample == nil {
		panic("asic: Start before Configure")
	}
	if f.running {
		panic("asic: already running")
	}
	f.running = true
	f.meter.Transition(f.k.Now(), platform.StateASICOn)
	f.startTimer(fs)
}

// startTimer arms the sample timer at fs Hz: the first acquisition
// completes one period from now.
func (f *Frontend) startTimer(fs float64) {
	f.period = sim.Time(float64(sim.Second)/fs + 0.5)
	f.next = f.k.Schedule(f.period, f.onTick)
}

// Retune changes the sampling rate of a running front-end in place —
// the battery degradation ladder's sample-rate downshift. The next
// acquisition completes one new period after the call. A stopped
// front-end is left untouched: the next Start carries its own rate.
func (f *Frontend) Retune(fs float64) {
	if fs <= 0 {
		panic("asic: sampling rate must be positive")
	}
	if !f.running {
		return
	}
	f.k.Cancel(f.next)
	f.startTimer(fs)
}

// Stop powers the front-end down.
func (f *Frontend) Stop() {
	if !f.running {
		return
	}
	f.running = false
	f.k.Cancel(f.next)
	f.meter.Transition(f.k.Now(), platform.StateASICOff)
}

// Running reports whether the front-end is sampling.
func (f *Frontend) Running() bool { return f.running }

// SamplesTaken reports how many acquisitions have completed.
func (f *Frontend) SamplesTaken() int64 { return f.idx }

// tick converts the enabled channels and hands the acquisition over.
//
//hot:path
func (f *Frontend) tick(k *sim.Kernel) {
	f.next = k.Schedule(f.period, f.onTick)
	i := f.idx
	f.source.Acquire(f.channels, i, f.samples)
	f.idx++
	f.onSample(i, f.samples)
}
