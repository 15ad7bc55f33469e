// Package radio models the Nordic nRF2401 single-chip 2.4 GHz transceiver
// in its ShockBurst mode, the feature the platform (and the paper's radio
// model, §4.2) is built around:
//
//   - the microcontroller clocks the frame into the on-chip FIFO at a low
//     data rate (a programmed-I/O transfer that keeps the MCU busy while
//     the radio sits in its negligible-current standby state), and the
//     radio then bursts it at 1 Mbps;
//   - the chip validates the CRC and the destination address in hardware,
//     so corrupted frames (collisions, §4.2) are discarded and overheard
//     frames addressed to other nodes never reach the microcontroller —
//     both still cost receive energy, which this model attributes to the
//     paper's loss categories;
//   - received payloads are clocked out of the RX FIFO byte-by-byte under
//     interrupt, keeping the receiver on for the drain tail.
package radio

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// Mode is the radio's operating mode.
//
//lint:exhaustive
type Mode int

// The nRF2401 operating modes the model distinguishes.
const (
	// ModeOff is full power-down; configuration is retained.
	ModeOff Mode = iota
	// ModeStandby keeps the crystal running (FIFO accessible).
	ModeStandby
	// ModeTx covers PLL settling and the burst transmission.
	ModeTx
	// ModeRx covers PLL settling, listening and FIFO draining.
	ModeRx
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeStandby:
		return "standby"
	case ModeTx:
		return "tx"
	case ModeRx:
		return "rx"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Stats counts radio-level events.
type Stats struct {
	TxFrames   uint64 // frames transmitted
	RxAccepted uint64 // frames delivered to the MCU
	CRCDrops   uint64 // frames discarded by the hardware CRC check
	AddrDrops  uint64 // frames discarded by the hardware address filter
}

// ReceiveFunc handles a frame that survived the hardware CRC and address
// checks, after the FIFO drain completes. It runs in interrupt context on
// the node's MCU.
type ReceiveFunc func(f packet.Frame)

// Radio is one nRF2401 instance bound to a node's OS and the shared
// medium.
type Radio struct {
	k      *sim.Kernel
	name   string
	params platform.RadioParams
	ch     *channel.Channel
	port   int // the radio's attach index on ch
	sched  *tinyos.Sched
	meter  *energy.Meter
	// modeState maps each Mode to its meter state, resolved once.
	modeState [ModeRx + 1]energy.Handle
	ledger    *energy.Ledger
	tracer    *metrics.Recorder
	trace     metrics.NodeID // name's ID in tracer

	mode      Mode
	rxSince   sim.Time // listening valid from this instant (after settle)
	draining  bool
	txBusy    bool
	hasLoaded bool
	loaded    packet.Frame // frame sitting in the TX FIFO after Load
	// txBuf and rxBuf are per-radio scratch buffers for the on-air image:
	// encode into txBuf at burst start, copy a delivered image into rxBuf
	// and decode in place. Steady-state transmit and receive therefore
	// allocate nothing. rxBuf is safe to reuse per delivery because the
	// channel never delivers to a radio whose FIFO drain is in progress
	// (ListeningSince reports not-listening while draining).
	txBuf []byte
	rxBuf []byte
	// clocking is set while a LoadFire's FIFO clock-in may still run: it
	// ends at the MCU dispatch position (clockInAt, clockInSeq), where the
	// radio leaves standby for after, TX or (once CancelFire called the
	// burst off) off. The meter holds that move as its deferred
	// transition, so the end of the clock-in costs no kernel event.
	clocking   bool
	clockInAt  sim.Time
	clockInSeq uint64
	after      Mode
	// gen invalidates in-flight transmit steps across a crash: the settle
	// event carries the generation it was issued under in its argument
	// word, settle hands it to BeginTx, and the channel hands it back to
	// EndBurst; each step applies only while it is still current.
	gen uint64
	// drainTok numbers RX FIFO drains; a drain event carries its token in
	// the argument word, so only the current drain may complete.
	drainTok uint64
	// State of the transmit and receive sequences, each stepped by a
	// handler bound once in New, so a frame allocates nothing. txBusy
	// gates Fire, so at most one burst is settling or on the air, and a
	// drain runs only while no other is in progress: one field each
	// holds it. FIFO clock-ins ride on the MCU; the burst's end rides on
	// the channel's end-of-frame event (EndBurst).
	tx        burst
	rx        packet.Frame // the frame being drained
	loads     mcu.Queue[load]
	onSettle  sim.Handler
	onDrained sim.Handler
	onLoaded  func()

	// rxAddrs[:nRxAddrs] is the hardware address filter.
	rxAddrs  [maxRxAddrs]packet.Address
	nRxAddrs int
	onRecv   ReceiveFunc

	stats     Stats
	lastRxEnd sim.Time
}

// New creates a radio, registers its energy meter and attaches it to the
// medium. The radio starts powered down.
func New(k *sim.Kernel, name string, params platform.RadioParams, ch *channel.Channel,
	sched *tinyos.Sched, ledger *energy.Ledger, tracer *metrics.Recorder) *Radio {
	v := params.VoltageV
	meter := ledger.Add(platform.ComponentRadio, map[energy.State]energy.Draw{
		platform.StateRadioOff:     {},
		platform.StateRadioStandby: {CurrentA: params.StandbyA, VoltageV: v},
		platform.StateRadioTX:      {CurrentA: params.TxA, VoltageV: v},
		platform.StateRadioRX:      {CurrentA: params.RxA, VoltageV: v},
	})
	meter.Start(k.Now(), platform.StateRadioOff)
	// One allocation backs both scratch buffers, each sized for the
	// largest image this radio sends; a longer image from another radio
	// outgrows rxBuf by append.
	img := params.AddressBytes + params.MaxPayloadBytes + params.CRCBytes
	scratch := make([]byte, 2*img)
	r := &Radio{
		k:      k,
		name:   name,
		params: params,
		ch:     ch,
		sched:  sched,
		meter:  meter,
		ledger: ledger,
		tracer: tracer,
		trace:  tracer.ID(name),
		loads:  mcu.NewQueue[load](sched.MCU()),
		txBuf:  scratch[:0:img],
		rxBuf:  scratch[img:img],
	}
	r.modeState = [...]energy.Handle{
		ModeOff:     meter.Handle(platform.StateRadioOff),
		ModeStandby: meter.Handle(platform.StateRadioStandby),
		ModeTx:      meter.Handle(platform.StateRadioTX),
		ModeRx:      meter.Handle(platform.StateRadioRX),
	}
	r.onSettle = r.settle
	r.onDrained = r.drained
	r.onLoaded = r.loadDone
	r.port = ch.Attach(r)
	return r
}

// burst is one transmission between Fire and the end of its burst.
type burst struct {
	frame packet.Frame
	air   sim.Time
	done  func()
}

// load is one frame being clocked into the TX FIFO.
type load struct {
	frame packet.Frame
	done  func()
}

// maxRxAddrs is the size of the hardware address filter: the nRF2401
// matches a handful of pipe addresses, and no MAC listens on more than
// two at once.
const maxRxAddrs = 4

// Name reports the radio's medium identifier.
func (r *Radio) Name() string { return r.name }

// Params reports the radio's hardware parameters.
func (r *Radio) Params() platform.RadioParams { return r.params }

// Mode reports the current operating mode.
func (r *Radio) Mode() Mode {
	if r.clockedIn() {
		return r.after
	}
	return r.mode
}

// Stats returns a copy of the radio counters.
func (r *Radio) Stats() Stats { return r.stats }

// LastRxFrameEnd reports the end-of-frame instant of the most recently
// accepted frame — the hardware timestamp upper layers use to recover
// protocol timing (e.g. the beacon's on-air start for slot scheduling).
func (r *Radio) LastRxFrameEnd() sim.Time { return r.lastRxEnd }

// ResetAccounting zeroes the radio's statistics. Used after simulation
// warm-up so measurements cover steady state only.
func (r *Radio) ResetAccounting() { r.stats = Stats{} }

// RxPowerW reports the receive-mode power draw.
func (r *Radio) RxPowerW() float64 { return r.params.RxA * r.params.VoltageV }

// TxPowerW reports the transmit-mode power draw.
func (r *Radio) TxPowerW() float64 { return r.params.TxA * r.params.VoltageV }

// SetReceiveHandler installs the upper-layer frame handler.
func (r *Radio) SetReceiveHandler(fn ReceiveFunc) { r.onRecv = fn }

// SetRxAddresses configures the hardware address filter: only frames
// destined to one of addrs (at most four) are forwarded to the MCU.
//
//hot:path
func (r *Radio) SetRxAddresses(addrs ...packet.Address) {
	if len(addrs) > maxRxAddrs {
		panic(fmt.Sprintf("radio %s: %d filter addresses, hardware holds %d", r.name, len(addrs), maxRxAddrs))
	}
	r.nRxAddrs = copy(r.rxAddrs[:], addrs)
}

// accepts reports whether the address filter passes dest.
func (r *Radio) accepts(dest packet.Address) bool {
	for _, a := range r.rxAddrs[:r.nRxAddrs] {
		if a == dest {
			return true
		}
	}
	return false
}

// PowerDown switches the radio off. Illegal while a transmission
// sequence is in progress.
func (r *Radio) PowerDown() {
	if r.txBusy {
		panic(fmt.Sprintf("radio %s: PowerDown during transmit sequence", r.name))
	}
	r.draining = false
	r.setMode(ModeOff)
}

// Standby moves the radio to standby. Illegal while transmitting.
func (r *Radio) Standby() {
	if r.txBusy {
		panic(fmt.Sprintf("radio %s: Standby during transmit sequence", r.name))
	}
	r.draining = false
	r.setMode(ModeStandby)
}

// StartRx turns the receiver on. The radio draws RX current immediately
// but can only capture frames once the PLL settles. A no-op if already
// receiving.
func (r *Radio) StartRx() {
	if r.txBusy {
		panic(fmt.Sprintf("radio %s: StartRx during transmit sequence", r.name))
	}
	if r.mode == ModeRx && !r.draining {
		return
	}
	r.draining = false
	r.setMode(ModeRx)
	r.rxSince = r.k.Now() + r.params.RxSettle
}

// Load clocks a frame into the TX FIFO: the MCU runs a programmed-I/O
// loop at the ShockBurst clock-in rate while the radio sits in standby.
// done runs when the FIFO holds the complete frame. The radio must not be
// receiving or transmitting.
//
// The payload slice is retained, not copied: the caller must keep its
// bytes unchanged until the frame has started its burst (Fire's settle
// instant, when the image is encoded), which lets MAC layers marshal
// into reusable scratch buffers.
//
//hot:path
func (r *Radio) Load(dest packet.Address, payload []byte, done func()) {
	r.clockIn("Load", payload, r.onLoaded)
	r.loads.Push(load{frame: packet.Frame{Dest: dest, Payload: payload}, done: done})
}

// clockIn moves the radio to standby and has the MCU clock payload into
// the TX FIFO, running done (if non-nil) as the clock-in ends. op names
// the caller in the panic on a busy radio or an oversized payload.
//
//hot:path
func (r *Radio) clockIn(op string, payload []byte, done func()) {
	if r.txBusy {
		panic(fmt.Sprintf("radio %s: %s during transmit sequence", r.name, op))
	}
	if r.mode == ModeRx {
		panic(fmt.Sprintf("radio %s: %s while receiving", r.name, op))
	}
	if len(payload) > r.params.MaxPayloadBytes {
		panic(fmt.Sprintf("radio %s: payload %dB exceeds ShockBurst FIFO (%dB)",
			r.name, len(payload), r.params.MaxPayloadBytes))
	}
	r.setMode(ModeStandby)
	r.sched.BusyLoad("radio-fifo-load", r.params.TxClockIn(r.params.AddressBytes+len(payload)), done)
}

// loadDone completes the oldest FIFO clock-in.
//
//hot:path
func (r *Radio) loadDone() {
	l := r.loads.Pop()
	r.loaded = l.frame
	r.hasLoaded = true
	if l.done != nil {
		l.done()
	}
}

// LoadFire is Load followed by Fire as the clock-in ends: the MCU clocks
// the frame into the FIFO, and the radio settles its PLL and bursts it
// straight away. sent runs when the burst ends and the radio is back in
// standby. The end of the clock-in is the MCU's elided completion, so no
// kernel event marks it: the radio moves from standby to TX there
// through its meter's deferred transition. CancelFire calls the burst
// off until then. The payload is retained as with Load.
//
//hot:path
func (r *Radio) LoadFire(dest packet.Address, payload []byte, sent func()) {
	r.clockIn("LoadFire", payload, nil)
	r.clockInAt, r.clockInSeq = r.sched.MCU().Completion()
	r.clocking, r.after = true, ModeTx
	r.meter.Defer(r.clockInAt, r.modeState[ModeTx])
	r.txBusy = true
	r.tx = burst{frame: packet.Frame{Dest: dest, Payload: payload},
		air: r.params.Airtime(len(payload)), done: sent}
	r.k.ScheduleArgAt(r.clockInAt+r.params.TxSettle, r.onSettle, r.gen)
}

// CancelFire calls off the burst of a LoadFire whose FIFO clock-in is
// still running (the MAC parked or crashed): nothing reaches the air,
// its sent callback never runs, and the radio powers down as the
// clock-in ends. Once the clock-in has ended it does nothing, and the
// burst goes ahead.
func (r *Radio) CancelFire() {
	if !r.clocking || r.after != ModeTx || r.clockedIn() {
		return
	}
	r.gen++
	r.txBusy = false
	r.tx = burst{}
	r.after = ModeOff
	r.meter.Defer(r.clockInAt, r.modeState[ModeOff])
}

// clockedIn reports whether a LoadFire's clock-in has ended: dispatch
// has passed its position.
//
//hot:path
func (r *Radio) clockedIn() bool {
	return r.clocking && r.k.Passed(r.clockInAt, r.clockInSeq)
}

// Fire transmits the frame previously loaded with Load: PLL settling,
// then the 1 Mbps burst. done runs when the burst ends and the radio is
// back in standby.
//
//hot:path
func (r *Radio) Fire(done func()) {
	if !r.hasLoaded {
		panic(fmt.Sprintf("radio %s: Fire with empty TX FIFO", r.name))
	}
	if r.txBusy {
		panic(fmt.Sprintf("radio %s: Fire during transmit sequence", r.name))
	}
	if r.mode == ModeRx {
		panic(fmt.Sprintf("radio %s: Fire while receiving", r.name))
	}
	frame := r.loaded
	r.loaded = packet.Frame{}
	r.hasLoaded = false
	r.txBusy = true
	r.setMode(ModeTx)
	r.tx = burst{frame: frame, air: r.params.Airtime(len(frame.Payload)), done: done}
	r.k.ScheduleArgAt(r.k.Now()+r.params.TxSettle, r.onSettle, r.gen)
}

// settle puts a fired frame on the air once the PLL has settled.
//
//hot:path
func (r *Radio) settle(k *sim.Kernel) {
	if k.Arg() != r.gen {
		return // crashed during PLL settling; nothing reached the air
	}
	r.clocking, r.mode = false, ModeTx
	// Encode into the per-radio scratch; the channel copies the image
	// into its own pooled buffer, so txBuf is free again on return.
	r.txBuf = r.tx.frame.AppendEncode(r.txBuf[:0])
	r.ch.BeginTx(r.port, r.txBuf, r.tx.air, r.gen)
}

// EndBurst implements channel.Transceiver: it returns the radio to
// standby when its burst has left the air. The channel calls it at the
// frame's end, after the frame's last delivery, with the generation
// settle put the frame on the air under.
//
//hot:path
func (r *Radio) EndBurst(gen uint64) {
	if gen != r.gen {
		return // crashed mid-burst; AbortTx already truncated it
	}
	r.stats.TxFrames++
	r.txBusy = false
	r.setMode(ModeStandby)
	if done := r.tx.done; done != nil {
		done()
	}
}

// Crash models a node power loss: any burst in progress is truncated on
// the medium, the FIFO contents are lost, and the radio powers down. The
// crashed-out transmit/drain callbacks never fire. After a Reboot the
// radio behaves like a freshly powered chip (mode off, empty FIFOs).
func (r *Radio) Crash() {
	r.gen++
	if r.txBusy {
		r.ch.AbortTx(r.port)
		r.txBusy = false
	}
	r.loaded = packet.Frame{}
	r.hasLoaded = false
	r.draining = false
	r.setMode(ModeOff)
}

// ChannelBusy reports whether any burst is on the air — the radio's
// clear-channel assessment primitive. A CSMA MAC models the assessment
// itself (receiver on through the settle and sample window) and calls
// this for the energy-detect verdict at the sample instant.
func (r *Radio) ChannelBusy() bool { return r.ch.Busy() }

// ChannelID implements channel.Transceiver.
func (r *Radio) ChannelID() string { return r.name }

// ListeningSince implements channel.Transceiver.
func (r *Radio) ListeningSince() (sim.Time, bool) {
	if r.mode != ModeRx || r.draining {
		return 0, false
	}
	return r.rxSince, true
}

// Deliver implements channel.Transceiver: end-of-frame processing in the
// order the hardware applies it — CRC check, address filter, FIFO drain,
// MCU interrupt.
//
//hot:path
func (r *Radio) Deliver(image []byte, cause channel.Corruption) {
	// The image buffer belongs to the channel and is recycled once
	// delivery returns; copy it into the radio's scratch and decode in
	// place, so the drain callback's frame stays valid without a
	// per-frame payload allocation.
	r.rxBuf = append(r.rxBuf[:0], image...)
	frame, crcOK, err := packet.DecodeInPlace(r.rxBuf)
	if err != nil || !crcOK {
		// The nRF2401 discards the frame internally; the receive energy
		// for the airtime is already metered — attribute it. Collisions
		// are the paper's category; noise-corrupted frames land there
		// too, since both manifest as CRC-discarded frames needing
		// retransmission.
		r.stats.CRCDrops++
		r.ledger.AttributeLoss(energy.LossCollision, r.RxPowerW()*r.imageAir(image).Seconds())
		metrics.Record1(r.tracer, r.k.Now(), r.trace, metrics.KindCRCDrop, "cause=%v", cause)
		return
	}
	if !r.accepts(frame.Dest) {
		// Overheard frame: address checked on-chip, never forwarded.
		r.stats.AddrDrops++
		r.ledger.AttributeLoss(energy.LossOverhearing, r.RxPowerW()*r.imageAir(image).Seconds())
		metrics.Record1(r.tracer, r.k.Now(), r.trace, metrics.KindAddrFilter, "dest=%06x", uint32(frame.Dest))
		return
	}

	// Drain the RX FIFO: the radio stays in RX; the MCU services one
	// interrupt per byte (cheap), then the upper layer handler runs.
	r.lastRxEnd = r.k.Now()
	r.draining = true
	r.rx = frame
	r.drainTok++
	drainDur := r.params.RxClockOut(len(frame.Payload))
	r.k.ScheduleArgAt(r.k.Now()+drainDur, r.onDrained, r.drainTok)
}

// imageAir is the airtime of a delivered on-air image, preamble
// included: the receive time a dropped frame cost.
func (r *Radio) imageAir(image []byte) sim.Time {
	return sim.Time(float64(len(image)+r.params.PreambleBytes) * 8 /
		r.params.BitrateHz * float64(sim.Second))
}

// drained hands a frame to the upper layer once the RX FIFO is empty.
//
//hot:path
func (r *Radio) drained(k *sim.Kernel) {
	if k.Arg() != r.drainTok || !r.draining {
		// A crash or a mode change by the upper layer (each clears
		// draining) ended this drain early and lost its frame; a later
		// drain may be in progress in its place.
		return
	}
	r.draining = false
	r.rxSince = k.Now() // listening resumes after the drain
	r.stats.RxAccepted++
	// Charge the per-byte FIFO interrupts to the MCU, but invoke the
	// handler at hardware time: on the MSP430 the radio interrupt
	// preempts whatever task is running, so time-critical reactions
	// (power the radio down, stamp the frame) are immediate, while any
	// heavy processing the handler wants is posted as a task.
	isrCycles := int64(len(r.rx.Payload)+1) * r.params.PerByteISRCycles
	r.sched.Interrupt("radio-rx", isrCycles, nil)
	if r.onRecv != nil {
		r.onRecv(r.rx)
	}
}

// setMode performs the meter transition for a mode change. A change
// before a LoadFire's clock-in ends (a crash, or a use of the radio
// after CancelFire) supersedes the move the meter holds for that end.
func (r *Radio) setMode(m Mode) {
	if r.clocking {
		if r.clockedIn() {
			r.mode = r.after
		} else {
			r.meter.Undefer()
		}
		r.clocking = false
	}
	if r.mode == m {
		return
	}
	r.mode = m
	r.meter.Enter(r.k.Now(), r.modeState[m])
}
