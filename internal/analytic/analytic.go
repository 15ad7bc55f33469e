// Package analytic provides a closed-form duty-cycle energy model of the
// sensor node — an estimate computed directly from the platform constants
// and the protocol geometry, with no event simulation.
//
// It plays two roles in this reproduction. First, it is the
// simulator-independent cross-check standing in for the hardware
// measurements we cannot re-run: the event simulator and this calculator
// share the platform profile but nothing else, so agreement between them
// (and with the paper's published numbers) localises errors. Second, it
// is the kind of back-of-envelope model the paper argues is insufficient
// — it has no collisions, no retransmissions, no queueing, no join
// transient — so the ablation benchmarks quantify what the event-driven
// detail adds.
package analytic

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Scenario describes the steady-state operating point to estimate.
type Scenario struct {
	Variant      mac.Variant
	Nodes        int
	Cycle        sim.Time // static cycle; dynamic derives (Nodes+1)*slot
	App          string   // "streaming", "rpeak", "hrv" or "eeg"
	SampleRateHz float64
	HeartRateBPM float64 // rpeak packet rate driver (default 75)
	Channels     int     // default 2
	Duration     sim.Time
	Profile      *platform.Profile // nil selects platform.IMEC()
}

// Estimate is the closed-form result.
type Estimate struct {
	RadioJ float64
	MCUJ   float64
	ASICJ  float64
	// Breakdown (joules over Duration).
	BeaconListenJ float64
	DataTxJ       float64
	AckListenJ    float64
	MCUBaselineJ  float64
	MCUActiveJ    float64
}

// RadioMJ reports the radio estimate in millijoules.
func (e Estimate) RadioMJ() float64 { return float64(e.RadioJ * 1e3) }

// MCUMJ reports the microcontroller estimate in millijoules.
func (e Estimate) MCUMJ() float64 { return float64(e.MCUJ * 1e3) }

// Compute evaluates the model.
func Compute(s Scenario) (Estimate, error) {
	prof := platform.IMEC()
	if s.Profile != nil {
		prof = *s.Profile
	}
	bs := platform.BaseStation()
	if s.Channels == 0 {
		if s.App == "eeg" {
			s.Channels = 24
		} else {
			s.Channels = 2
		}
	}
	if approx.Unset(s.HeartRateBPM) {
		s.HeartRateBPM = 75
	}
	if s.Duration <= 0 {
		return Estimate{}, fmt.Errorf("analytic: non-positive duration")
	}

	cycle := s.Cycle
	if s.Variant == mac.Dynamic {
		cycle = prof.MAC.DynamicSlotDuration * sim.Time(s.Nodes+1)
	}
	if cycle <= 0 {
		return Estimate{}, fmt.Errorf("analytic: cycle undefined")
	}
	cyclesPerSec := 1.0 / cycle.Seconds()
	secs := s.Duration.Seconds()

	r := prof.Radio
	pRx := r.RxA * r.VoltageV
	pTx := r.TxA * r.VoltageV

	// Beacon geometry.
	beaconPayload := prof.MAC.BeaconBasePayloadBytes
	guard := prof.MAC.StaticGuard
	if s.Variant == mac.Dynamic {
		beaconPayload += prof.MAC.SlotEntryBytes * s.Nodes
		guard = prof.MAC.DynamicGuard
	}
	beaconWindow := r.RxSettle + guard + r.Airtime(beaconPayload) + r.RxClockOut(beaconPayload)

	// Data packet geometry and rate.
	var payloadBytes int
	var pktPerSec float64
	switch s.App {
	case "streaming":
		if s.SampleRateHz <= 0 {
			return Estimate{}, fmt.Errorf("analytic: streaming needs a sampling rate")
		}
		payloadBytes = 18
		// One payload per TDMA cycle, capped by the sample production
		// rate (12 samples per payload).
		production := s.SampleRateHz * float64(s.Channels) / 12.0
		pktPerSec = cyclesPerSec
		if production < pktPerSec {
			pktPerSec = production
		}
	case "rpeak":
		payloadBytes = packet.BeatBytes
		pktPerSec = s.HeartRateBPM / 60.0 * float64(s.Channels)
	case "hrv":
		payloadBytes = packet.HRVBytes
		pktPerSec = s.HeartRateBPM / 60.0 / 16 // one summary per 16 beats
	case "eeg":
		// Per-channel amplitude summaries, 8 channels per frame, one
		// window per second.
		payloadBytes = 3 + 2*8
		pktPerSec = float64((s.Channels + 7) / 8)
	default:
		return Estimate{}, fmt.Errorf("analytic: unknown app %q", s.App)
	}

	// Per-packet radio cost: the transmit burst, then the receiver is on
	// from the frame's end until the base station's acknowledgement is
	// drained.
	txDur := r.TxSettle + r.Airtime(payloadBytes)
	ackLatency := bs.Radio.RxClockOut(payloadBytes) +
		bs.MCU.CyclesToTime(bs.Cost.BSAckTurnaround) +
		bs.Radio.TxClockIn(bs.Radio.AddressBytes+prof.MAC.AckPayloadBytes) +
		bs.Radio.TxSettle + bs.Radio.Airtime(prof.MAC.AckPayloadBytes)
	ackWindow := ackLatency + r.RxClockOut(prof.MAC.AckPayloadBytes)

	est := Estimate{}
	est.BeaconListenJ = float64(pRx * beaconWindow.Seconds() * cyclesPerSec * secs)
	est.DataTxJ = float64(pTx * txDur.Seconds() * pktPerSec * secs)
	est.AckListenJ = float64(pRx * ackWindow.Seconds() * pktPerSec * secs)
	est.RadioJ = est.BeaconListenJ + est.DataTxJ + est.AckListenJ

	// Microcontroller: two-state model on top of the power-save floor.
	m := prof.MCU
	parse := prof.Cost.BeaconParseStatic
	if s.Variant == mac.Dynamic {
		parse = prof.Cost.BeaconParseDynamic
	}
	var perSecActive sim.Time
	perSecActive += sim.Time(float64(m.CyclesToTime(parse)) * cyclesPerSec)
	switch s.App {
	case "streaming":
		perSecActive += sim.Time(float64(m.CyclesToTime(prof.Cost.SamplePairStreaming)) * s.SampleRateHz)
		perPkt := m.CyclesToTime(prof.Cost.PacketAssembly) +
			r.TxClockIn(r.AddressBytes+payloadBytes)
		perSecActive += sim.Time(float64(perPkt) * pktPerSec)
	case "rpeak":
		perSample := m.CyclesToTime(prof.Cost.RpeakAcquirePair) +
			sim.Time(s.Channels)*m.CyclesToTime(prof.Cost.RpeakPerChannelSample)
		perSecActive += sim.Time(float64(perSample) * s.SampleRateHz)
		perPkt := m.CyclesToTime(prof.Cost.BeatPacketAssembly) +
			r.TxClockIn(r.AddressBytes+payloadBytes)
		perSecActive += sim.Time(float64(perPkt) * pktPerSec)
	case "hrv":
		perSample := m.CyclesToTime(prof.Cost.RpeakAcquirePair) +
			m.CyclesToTime(prof.Cost.RpeakPerChannelSample)
		perSecActive += sim.Time(float64(perSample) * s.SampleRateHz)
		perPkt := m.CyclesToTime(16*220+prof.Cost.BeatPacketAssembly) +
			r.TxClockIn(r.AddressBytes+payloadBytes)
		perSecActive += sim.Time(float64(perPkt) * pktPerSec)
	case "eeg":
		perSample := m.CyclesToTime(prof.Cost.RpeakAcquirePair + int64(s.Channels)*60)
		perSecActive += sim.Time(float64(perSample) * s.SampleRateHz)
		perWindow := m.CyclesToTime(int64(s.Channels) * 180)
		perSecActive += sim.Time(perWindow) // one window per second
		perPkt := r.TxClockIn(r.AddressBytes + payloadBytes)
		perSecActive += sim.Time(float64(perPkt) * pktPerSec)
	}
	activeSecs := perSecActive.Seconds() * secs
	pActive := float64(m.ActiveA * m.VoltageV)
	pSave := float64(m.PowerSaveA * m.VoltageV)
	est.MCUBaselineJ = float64(pSave * secs)
	est.MCUActiveJ = float64((pActive - pSave) * activeSecs)
	est.MCUJ = est.MCUBaselineJ + est.MCUActiveJ

	est.ASICJ = prof.ASIC.PowerW * secs
	return est, nil
}
