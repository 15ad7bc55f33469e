// Package platform collects the electrical and timing parameters of the
// sensor-node hardware the paper builds on: the TI MSP430F149
// microcontroller, the Nordic nRF2401 transceiver and the IMEC 25-channel
// biopotential ASIC, plus the calibrated activity cost model that plays
// the role PowerTOSSIM's basic-block mapping plays in the original
// framework.
//
// Datasheet/paper constants (§3.1, §4.1, §4.2 of the paper):
//   - MSP430F149: 2 mA active / 0.66 mA power-save at 2.8 V, 6 µs wakeup,
//     0.6 nJ/instruction, 8 MHz maximum clock.
//   - nRF2401: 17.54 mA TX / 24.82 mA RX at 2.8 V (measured), standby
//     below the paper's 100 µA measurement floor, 1 Mbps on-air rate,
//     ShockBurst FIFO with low-rate clock-in.
//   - 25-ch ASIC: constant 10.5 mW at 3.0 V.
//
// Calibrated constants (guard windows, FIFO clock rates, per-activity
// cycle counts) are recovered by fitting the paper's published tables,
// exactly as the authors calibrated against their measurement setup. The
// derivations are in DESIGN.md §5 and EXPERIMENTS.md.
package platform

import "repro/internal/sim"

// MCUParams describes the microcontroller's electrical operating points
// and clocking.
type MCUParams struct {
	// VoltageV is the supply voltage.
	VoltageV float64
	// ActiveA is the current drawn while executing instructions.
	ActiveA float64
	// PowerSaveA is the current drawn in the power-save mode the TinyOS
	// scheduler selects during inactive periods (the paper: only the
	// first low-power mode is used for these applications).
	PowerSaveA float64
	// DeepModesA are the currents of the remaining low-power modes
	// (LPM1..LPM4 equivalents, completing the paper's "5 available power
	// save modes"); the scheduler does not enter them for the paper's
	// workloads, which always select the first mode.
	DeepModesA [4]float64
	// ClockHz is the CPU clock. The paper runs the MCU at maximum speed
	// because of the ASIC's timing requirements.
	ClockHz float64
	// WakeupLatency is the stand-by to active transition time.
	WakeupLatency sim.Time
}

// CyclesToTime converts an instruction-cycle count into execution time at
// the MCU clock.
func (m MCUParams) CyclesToTime(cycles int64) sim.Time {
	if cycles <= 0 {
		return 0
	}
	return sim.Time(float64(cycles) / m.ClockHz * float64(sim.Second))
}

// Datasheet/measured operating points (§3.1, §4.1 of the paper), named
// with their unit as banlint's unitconst analyzer requires: every
// electrical quantity that reaches a platform API carries its
// provenance and unit in its name instead of appearing as a bare
// number at the use site.
const (
	// MSP430F149 on the 2.8 V rail.
	mcuSupplyVoltageV    = 2.8
	mcuActiveCurrentA    = 2e-3
	mcuPowerSaveCurrentA = 0.66e-3
	// The remaining low-power modes (LPM1..LPM4 equivalents).
	mcuLPM1CurrentA = 75e-6
	mcuLPM2CurrentA = 22e-6
	mcuLPM3CurrentA = 17e-6
	mcuLPM4CurrentA = 0.1e-6

	// nRF2401 measured at 2.8 V; standby sits below the paper's
	// 100 µA measurement floor.
	radioSupplyVoltageV  = 2.8
	radioTxCurrentA      = 17.54e-3
	radioRxCurrentA      = 24.82e-3
	radioStandbyCurrentA = 12e-6

	// IMEC 25-channel biopotential ASIC: constant draw at 3.0 V.
	asicSupplyVoltageV = 3.0
	asicPowerW         = 10.5e-3
)

// mcuLeakageA is the frequency-independent part of the active current;
// the rest scales linearly with the clock (CMOS dynamic power). The
// split is anchored so that the paper's measured 2 mA at the 8 MHz
// maximum is reproduced exactly.
const mcuLeakageA = 0.12e-3

// AtClock derives the parameters for running the MSP430 at a different
// core clock on the same 2.8 V rail: the active current scales with
// frequency (I = leakage + k·f), computation takes proportionally
// longer, and the low-power-mode floor is unchanged. This is the tuning
// knob the paper notes it could NOT use — the 25-channel ASIC's timing
// requirements forced the maximum clock (§5.1) — and the clock-scaling
// ablation quantifies what that constraint costs.
func (m MCUParams) AtClock(clockHz float64) MCUParams {
	if clockHz <= 0 {
		panic("platform: clock must be positive")
	}
	perHz := (m.ActiveA - mcuLeakageA) / m.ClockHz
	out := m
	out.ClockHz = clockHz
	out.ActiveA = mcuLeakageA + float64(perHz*clockHz)
	return out
}

// RadioParams describes the transceiver's electrical operating points,
// framing and timing.
type RadioParams struct {
	// VoltageV is the supply voltage.
	VoltageV float64
	// TxA, RxA, StandbyA are the per-state currents. Off draws nothing.
	TxA      float64
	RxA      float64
	StandbyA float64
	// BitrateHz is the on-air ShockBurst burst rate.
	BitrateHz float64
	// PreambleBytes, AddressBytes, CRCBytes define the frame overhead
	// around the payload.
	PreambleBytes int
	AddressBytes  int
	CRCBytes      int
	// MaxPayloadBytes is the largest payload one ShockBurst frame can
	// carry (the nRF2401 FIFO is 256 bits total).
	MaxPayloadBytes int
	// TxSettle and RxSettle are the PLL settling times before the radio
	// can transmit or receive; current during settling is the target
	// mode's current.
	TxSettle sim.Time
	RxSettle sim.Time
	// TxFIFOClockInHz is the rate at which the MCU clocks payload bytes
	// into the TX FIFO (the "low data rate" side of ShockBurst). The MCU
	// is busy (programmed I/O) for the duration; the radio sits in
	// standby.
	TxFIFOClockInHz float64
	// RxFIFOClockOutHz is the rate at which received payload bytes are
	// clocked out of the RX FIFO. The transfer is interrupt-driven
	// byte-by-byte, so the MCU naps between bytes, but the radio stays
	// in RX until the FIFO is drained.
	RxFIFOClockOutHz float64
	// PerByteISRCycles is the MCU cost of each RX FIFO byte interrupt.
	PerByteISRCycles int64
}

// FrameOverheadBytes reports the non-payload bytes of every frame.
func (r *RadioParams) FrameOverheadBytes() int {
	return r.PreambleBytes + r.AddressBytes + r.CRCBytes
}

// Airtime reports the on-air duration of a frame with the given payload
// length.
func (r *RadioParams) Airtime(payloadBytes int) sim.Time {
	bits := float64(8 * (payloadBytes + r.FrameOverheadBytes()))
	return sim.Time(bits / r.BitrateHz * float64(sim.Second))
}

// TxClockIn reports how long the MCU takes to load payloadBytes plus
// header bytes into the TX FIFO.
func (r *RadioParams) TxClockIn(payloadBytes int) sim.Time {
	bits := float64(8 * payloadBytes)
	return sim.Time(bits / r.TxFIFOClockInHz * float64(sim.Second))
}

// RxClockOut reports how long draining payloadBytes from the RX FIFO
// keeps the radio in RX after the frame ends.
func (r *RadioParams) RxClockOut(payloadBytes int) sim.Time {
	bits := float64(8 * payloadBytes)
	return sim.Time(bits / r.RxFIFOClockOutHz * float64(sim.Second))
}

// ASICParams describes the biopotential front-end.
type ASICParams struct {
	// PowerW is the constant power draw while enabled.
	PowerW float64
	// VoltageV is the supply voltage.
	VoltageV float64
	// Channels is the number of acquisition channels.
	Channels int
	// ADCBits is the sample resolution.
	ADCBits int
}

// MACParams holds the TDMA protocol timing shared by both MAC variants.
type MACParams struct {
	// StaticGuard is how long before the expected beacon a node in a
	// static-TDMA network enables its receiver (drift margin + settle
	// margin, calibrated).
	StaticGuard sim.Time
	// DynamicGuard is the same margin for the dynamic TDMA.
	DynamicGuard sim.Time
	// Turnaround is the RX<->TX mode switch time at the protocol level
	// (FIFO handover; PLL settling is accounted separately).
	Turnaround sim.Time
	// AckTimeout is how long after its data frame ends a transmitter
	// keeps the receiver on before concluding the acknowledgement was
	// lost.
	AckTimeout sim.Time
	// AckPayloadBytes is the ACK frame payload length.
	AckPayloadBytes int
	// BeaconBasePayloadBytes is the beacon payload before any dynamic
	// slot-table entries.
	BeaconBasePayloadBytes int
	// SlotEntryBytes is the per-assigned-slot addition to the dynamic
	// beacon payload (node id + slot index).
	SlotEntryBytes int
	// DynamicSlotDuration is the fixed per-node slot length of the
	// dynamic TDMA (the paper: 10 ms).
	DynamicSlotDuration sim.Time
	// SSRPayloadBytes is the slot-request payload length.
	SSRPayloadBytes int
	// GrantEntryBytes is the per-grant addition to a static beacon when
	// a join is being answered.
	GrantEntryBytes int
	// JoinListenLimit caps how long a node listens continuously for its
	// first beacon when joining before cycling the radio.
	JoinListenLimit sim.Time
	// MaxStaticSlots is the fixed slot count of the static TDMA ("the
	// number of available slots is fixed").
	MaxStaticSlots int
	// MaxDynamicSlots caps the dynamic network size.
	MaxDynamicSlots int
}

// CostModel maps each OS/application activity to MSP430 instruction
// cycles, the coarse-grained counterpart of PowerTOSSIM's basic-block
// mapping. Counts are calibrated against the paper's tables (DESIGN.md §5).
type CostModel struct {
	// BeaconParseStatic is the per-TDMA-cycle MCU work in a static
	// network: timer bookkeeping, beacon parse, slot scheduling.
	BeaconParseStatic int64
	// BeaconParseDynamic is the same for the dynamic TDMA (smaller: the
	// slot table is consumed incrementally by the FIFO byte ISR).
	BeaconParseDynamic int64
	// SamplePairStreaming is the per-acquisition cost of reading one
	// simultaneous 2-channel sample pair and buffering it for streaming.
	SamplePairStreaming int64
	// RpeakPerChannelSample is the per-channel, per-sample cost of the
	// R-peak detection algorithm (called for every sample, §5.2).
	RpeakPerChannelSample int64
	// RpeakAcquirePair is the acquisition cost per sample pair in the
	// Rpeak application (no streaming buffer copy).
	RpeakAcquirePair int64
	// PacketAssembly is the cost of finalising a data packet before the
	// FIFO load (header, packing bookkeeping).
	PacketAssembly int64
	// BeatPacketAssembly is the cost of building the small Rpeak event
	// packet.
	BeatPacketAssembly int64
	// SSRPrep is the cost of preparing a slot request during join.
	SSRPrep int64
	// AckProcess is the cost of handling an ACK reception.
	AckProcess int64
	// RadioISR is the generic cost of a radio interrupt entry/exit.
	RadioISR int64
	// BSBeaconBuild, BSDataHandle, BSSlotAssign are base-station costs.
	BSBeaconBuild int64
	BSDataHandle  int64
	BSSlotAssign  int64
	// BSAckTurnaround is the base station's fast path from a received
	// data frame to the queued acknowledgement.
	BSAckTurnaround int64
}

// Profile bundles every hardware and calibration parameter of one
// platform build.
type Profile struct {
	Name  string
	MCU   MCUParams
	Radio RadioParams
	ASIC  ASICParams
	MAC   MACParams
	Cost  CostModel
}

// IMEC returns the profile of the paper's platform: the IMEC-NL
// biopotential node (MSP430F149 + nRF2401 + 25-channel EEG/ECG ASIC).
//
// Calibration summary (fits of the published tables; see EXPERIMENTS.md):
//
//   - The static-TDMA beacon listen window must cost ≈ 0.22 mJ/cycle
//     (Tables 1 and 3 both show radio energy ≈ linear in cycles/s with
//     that coefficient once data packets are subtracted). With RX at
//     69.5 mW that is ≈ 3.17 ms of receiver-on time per cycle:
//     202 µs settle + 2.21 ms guard + 112 µs beacon airtime + 640 µs
//     RX FIFO clock-out of the 8-byte beacon payload at 100 kbps.
//   - A data transmission costs ≈ 49 µJ (streaming-vs-Rpeak deltas in
//     Tables 1/3 and 2/4): 195 µs TX settle + 192 µs airtime of the
//     24-byte frame at TX power, then 202 µs RX settle + ACK wait + ACK
//     airtime + clock-out at RX power.
//   - Dynamic beacons carry a 2-byte slot-table entry per assigned slot;
//     draining them from the RX FIFO at 100 kbps extends the receiver-on
//     tail by 160 µs per node, reproducing the per-cycle radio growth of
//     Tables 2/4 (0.21 → 0.26 mJ/cycle from 1 to 5 nodes).
//   - MCU: the paper's Sim column in Table 1 is exactly linear in the
//     sampling frequency on top of the 110.88 mJ power-save floor;
//     fitting it gives ≈ 480 cycles per 2-channel sample pair and
//     ≈ 6.34 ms of active time per TDMA cycle, which splits into
//     ≈ 2.24 ms cycle overhead (Table 3's cycle sweep isolates it) and
//     ≈ 4.1 ms per data packet — the ShockBurst FIFO load of 24 bytes
//     at a 50 kbps programmed-I/O clock-in plus ≈ 2 k cycles of packet
//     assembly. The Rpeak detector costs ≈ 1230 cycles per channel
//     sample (Table 3's frequency-independent floor).
func IMEC() Profile {
	mcu := MCUParams{
		VoltageV:      mcuSupplyVoltageV,
		ActiveA:       mcuActiveCurrentA,
		PowerSaveA:    mcuPowerSaveCurrentA,
		DeepModesA:    [4]float64{mcuLPM1CurrentA, mcuLPM2CurrentA, mcuLPM3CurrentA, mcuLPM4CurrentA},
		ClockHz:       8e6,
		WakeupLatency: 6 * sim.Microsecond,
	}
	return Profile{
		Name: "imec-ban-node",
		MCU:  mcu,
		Radio: RadioParams{
			VoltageV:         radioSupplyVoltageV,
			TxA:              radioTxCurrentA,
			RxA:              radioRxCurrentA,
			StandbyA:         radioStandbyCurrentA,
			BitrateHz:        1e6,
			PreambleBytes:    1,
			AddressBytes:     3,
			CRCBytes:         2,
			MaxPayloadBytes:  26, // 256-bit FIFO minus address+CRC
			TxSettle:         195 * sim.Microsecond,
			RxSettle:         202 * sim.Microsecond,
			TxFIFOClockInHz:  50e3,
			RxFIFOClockOutHz: 100e3,
			PerByteISRCycles: 24,
		},
		ASIC: ASICParams{
			PowerW:   asicPowerW,
			VoltageV: asicSupplyVoltageV,
			Channels: 25,
			ADCBits:  12,
		},
		MAC: MACParams{
			StaticGuard:            2212 * sim.Microsecond,
			DynamicGuard:           1250 * sim.Microsecond,
			Turnaround:             20 * sim.Microsecond,
			AckTimeout:             1500 * sim.Microsecond,
			AckPayloadBytes:        1,
			BeaconBasePayloadBytes: 8,
			SlotEntryBytes:         2,
			DynamicSlotDuration:    10 * sim.Millisecond,
			SSRPayloadBytes:        4,
			GrantEntryBytes:        3,
			JoinListenLimit:        500 * sim.Millisecond,
			MaxStaticSlots:         5,
			MaxDynamicSlots:        9, // (MaxPayloadBytes - beacon base) / slot entry size
		},
		Cost: CostModel{
			BeaconParseStatic:     17900, // ≈ 2.24 ms at 8 MHz
			BeaconParseDynamic:    14400, // ≈ 1.80 ms at 8 MHz
			SamplePairStreaming:   480,   // ≈ 60 µs
			RpeakPerChannelSample: 1230,  // ≈ 154 µs
			RpeakAcquirePair:      480,
			PacketAssembly:        5900, // ≈ 740 µs; with the 3.36 ms FIFO load ⇒ ≈ 4.1 ms/packet
			BeatPacketAssembly:    800,
			SSRPrep:               1600,
			AckProcess:            320,
			RadioISR:              160,
			BSBeaconBuild:         2400,
			BSDataHandle:          1200,
			BSSlotAssign:          2000,
			BSAckTurnaround:       240, // ≈ 30 µs: interrupt-context ack queueing
		},
	}
}

// BaseStation returns the profile of the collecting device. It is the
// same MSP430 + nRF2401 pairing, but the base station is powered from
// the PC/PDA it feeds, so its firmware runs the FIFO transfers at the
// full SPI rate instead of the nodes' energy-relaxed slow clocking. That
// fast FIFO path is what keeps the data→ack turnaround short enough for
// the nodes' calibrated ~450 µs acknowledgement window.
func BaseStation() Profile {
	p := IMEC()
	p.Name = "imec-ban-basestation"
	p.Radio.TxFIFOClockInHz = 2e6
	p.Radio.RxFIFOClockOutHz = 2e6
	return p
}

// Component meter names used consistently across the framework.
const (
	ComponentMCU   = "mcu"
	ComponentRadio = "radio"
	ComponentASIC  = "asic"
)

// MCU power-state names.
const (
	StateMCUOff       = "off"
	StateMCUActive    = "active"
	StateMCUPowerSave = "power-save"
	StateMCULPM1      = "lpm1"
	StateMCULPM2      = "lpm2"
	StateMCULPM3      = "lpm3"
	StateMCULPM4      = "lpm4"
)

// Radio power-state names.
const (
	StateRadioOff     = "off"
	StateRadioStandby = "standby"
	StateRadioTX      = "tx"
	StateRadioRX      = "rx"
)

// ASIC power-state names.
const (
	StateASICOn  = "on"
	StateASICOff = "off"
)
