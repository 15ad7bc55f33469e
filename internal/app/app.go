// Package app implements the biomedical applications the paper evaluates
// (§5): 2-channel ECG streaming, and the on-node Rpeak heart-beat
// detector that trades a little microcontroller work for a large radio
// saving.
package app

import (
	"repro/internal/asic"
	"repro/internal/codec"
	"repro/internal/ecg"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/tinyos"
)

// App is the node layer's view of an application.
type App interface {
	// Name identifies the application ("ecg-stream", "rpeak").
	Name() string
	// Start begins acquisition; called once the MAC holds a slot.
	Start()
	// Stop halts acquisition.
	Stop()
}

// Downshifter is implemented by applications that can reduce their
// sampling rate under energy pressure — the sample-rate rung of the
// battery graceful-degradation ladder. Downshift divides the sampling
// rate by factor (> 1); it may be called while running or stopped, and
// composes across calls (two factor-2 downshifts quarter the rate).
type Downshifter interface {
	Downshift(factor float64)
}

// Env bundles the node facilities an application runs on.
type Env struct {
	Sched    *tinyos.Sched
	Frontend *asic.Frontend
	Mac      mac.Mac
	Cost     platform.CostModel
	Tracer   *metrics.Recorder
	NodeName string
}

// validate panics on an incomplete environment.
func (e Env) validate() {
	if e.Sched == nil || e.Frontend == nil || e.Mac == nil {
		panic("app: incomplete environment")
	}
}

// signalSource adapts an ECG generator to the front-end's Source
// interface at a fixed sampling rate.
func signalSource(g *ecg.Generator, fs float64) asic.Source {
	return asic.SourceFunc(func(ch int, i int64) codec.Sample {
		return g.SampleAt(ch, i, fs)
	})
}
