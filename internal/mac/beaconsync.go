package mac

import (
	"repro/internal/approx"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tinyos"
)

// beaconSync is the node core of the beaconed MACs (TDMA and CSMA): the
// continuous search listen, one receive window per expected beacon with
// dead reckoning across silent ones and a rejoin after too many, the
// grant scan, and the beacon-only doze. The protocol continues every
// heard beacon with its own access step once the beacon-parse task ran.
type beaconSync struct {
	nodeCore

	t0           sim.Time // air-start instant of the current cycle's beacon
	cycle        sim.Time // cycle length from the latest beacon
	missed       int
	joinListenAt sim.Time
	// beacon is the last parsed beacon; its Entries slice is reused.
	beacon packet.Beacon

	window rxWindow // the listen for an expected beacon
	// onWindow, bound once, handles a window's open and its timeout. An
	// open carries its generation and stride in the event's argument
	// word (see windowStrideBits); a crash cancels the window's timeout,
	// so it carries none, and a zero word tells it apart.
	onWindow sim.Handler
}

// windowStrideBits is the low part of a window open's argument word
// that holds its stride, at least 1; the crash generation sits above
// it.
const windowStrideBits = 8

// parkBeaconEvery is the parked node's doze ratio: a beacon-only node
// wakes for one beacon window in this many cycles and dead-reckons
// across the gap. Beacon listening dominates a parked node's budget
// (there is no other traffic left), so the ratio — not the parking
// itself — is what makes the final degradation rung cheap; the residual
// drift accumulated over the dozed cycles stays far inside the guard
// margins at crystal tolerances.
const parkBeaconEvery = 8

// init wires the core and binds the window handlers.
func (m *beaconSync) init(k *sim.Kernel, cfg NodeConfig, sched *tinyos.Sched, r *radio.Radio,
	ledger *energy.Ledger, tracer *metrics.Recorder, resetAccess func()) {
	m.nodeCore.init(k, cfg, sched, r, ledger, tracer, resetAccess)
	m.onWindow = m.windowDue
}

// windowDue dispatches a beacon window's open or, with a zero argument
// word, its timeout.
//
//hot:path
func (m *beaconSync) windowDue(k *sim.Kernel) {
	m.enter()
	if k.Arg() == 0 {
		m.windowTimedOut()
		return
	}
	m.windowOpened(k)
}

// Start implements Mac: listen continuously for a first beacon.
func (m *beaconSync) Start() {
	m.enter()
	m.state = stateSearching
	m.listen()
	if m.joinedEver {
		// A restart after a crash: the rejoin clock runs from the cold
		// boot, mirroring fault.Outcome.TimeToRejoin.
		m.startRejoinClock()
	}
}

// listen turns the receiver on for the search for a beacon.
func (m *beaconSync) listen() {
	m.radio.SetRxAddresses(m.cfg.Plan.Beacon)
	m.radio.StartRx()
	m.joinListenAt = m.k.Now()
}

// CycleLength implements Mac.
func (m *beaconSync) CycleLength() sim.Time { return m.cycle }

// Crash implements NodeMAC: the core's crash, with the open beacon
// window closed so its timeout cannot fire against the rebooted node.
func (m *beaconSync) Crash() {
	m.enter()
	m.window.close(m.k)
	m.missed = 0
	m.nodeCore.Crash()
}

// EnterBeaconOnly drops the node to the final degradation rung: the
// application is already stopped by the caller; the MAC hands its slot
// back to the base station (so the dynamic cycle compacts immediately)
// and then keeps only beacon synchronisation alive. The mode is sticky —
// it mirrors battery charge, which never comes back.
func (m *beaconSync) EnterBeaconOnly() {
	m.enter()
	if m.beaconOnly {
		return
	}
	m.beaconOnly = true
	switch m.state {
	case stateJoined:
		m.releasePending = true // announce on our own opportunity, then park
	case stateRequesting:
		m.park()
	case stateSearching, stateCrashed, stateParked:
		// Searching parks on the next beacon; crashed parks after the
		// reboot's first beacon.
	}
}

// releaseFlown accounts the voluntary slot release once it has flown and
// parks; format renders the released index in the trace.
func (m *beaconSync) releaseFlown(format string) {
	m.stats.ReleasesSent++
	m.chargeControlTx(packet.ReleaseBytes)
	metrics.Record1(m.tracer, m.k.Now(), m.trace, metrics.KindSlotRelease, format, m.slot)
	m.radio.PowerDown()
	m.park()
}

// --- protocol timing helpers -------------------------------------------

// guard reports the variant's beacon guard margin.
func (m *beaconSync) guard() sim.Time {
	if m.cfg.Protocol == ProtoDynamic {
		return m.cfg.Profile.MAC.DynamicGuard
	}
	return m.cfg.Profile.MAC.StaticGuard
}

// local converts an interval the node times with its own oscillator into
// the true elapsed simulation time, applying the clock drift.
func (m *beaconSync) local(d sim.Time) sim.Time {
	if approx.Unset(m.cfg.ClockDriftPPM) {
		return d
	}
	return sim.Time(float64(d) * (1 + float64(m.cfg.ClockDriftPPM*1e-6)))
}

// parseCycles reports the variant's beacon-parse cost.
func (m *beaconSync) parseCycles() int64 {
	if m.cfg.Protocol == ProtoDynamic {
		return m.cfg.Profile.Cost.BeaconParseDynamic
	}
	return m.cfg.Profile.Cost.BeaconParseStatic
}

// maxBeaconPayload bounds the beacon size for window-timeout sizing.
func (m *beaconSync) maxBeaconPayload() int {
	if m.cfg.Protocol == ProtoDynamic {
		return m.cfg.Profile.MAC.BeaconBasePayloadBytes +
			m.cfg.Profile.MAC.SlotEntryBytes*m.cfg.Profile.MAC.MaxDynamicSlots
	}
	return m.cfg.Profile.MAC.BeaconBasePayloadBytes +
		m.cfg.Profile.MAC.GrantEntryBytes*2
}

// nextWindowOpen reports when the node expects to open its next beacon
// listen window: every transmission of this cycle must clear it.
func (m *beaconSync) nextWindowOpen() sim.Time {
	return m.t0 + m.local(m.cycle-m.guard()-m.cfg.Profile.Radio.RxSettle)
}

// --- frame dispatch ------------------------------------------------------

// receive dispatches a frame: a beacon is handled and, once its parse
// task ran, continued with afterParse, the protocol's access step; an
// acknowledgement resolves the open ack window. It reports whether the
// frame resolved one.
//
// A beacon advertising a zero cycle (a corrupted one that passed the
// CRC) is dropped before it touches the radio, the window or a counter:
// the search goes on, or the open window times out as a miss.
//
//hot:path
func (m *beaconSync) receive(f packet.Frame, afterParse func()) bool {
	switch {
	case f.Dest == m.cfg.Plan.Beacon:
		var ok bool
		m.beacon, ok = packet.ParseBeacon(f.Payload, m.beacon.Entries[:0])
		if ok && m.beacon.CycleMicros > 0 {
			m.handleBeacon(m.beacon, len(f.Payload), afterParse)
		}
	case f.Dest == m.cfg.Plan.NodeAddr(m.cfg.NodeID) && packet.IsAck(f.Payload):
		return m.ackArrived()
	}
	return false
}

// handleBeacon runs (in interrupt context) after the beacon's FIFO
// drain: it closes the listen window, resynchronises and scans the
// grants.
func (m *beaconSync) handleBeacon(b packet.Beacon, payloadLen int, afterParse func()) {
	now := m.k.Now()
	frameEnd := m.radio.LastRxFrameEnd()
	airStart := frameEnd - m.cfg.Profile.Radio.Airtime(payloadLen)

	m.radio.PowerDown()
	if m.window.close(m.k) {
		m.accountControlRx(now - m.window.at)
	} else if m.state == stateSearching {
		// The whole continuous search listen is idle listening except
		// the beacon frame itself.
		idle := now - m.joinListenAt
		m.joinIdleTime += idle
		m.ledger.AttributeLoss(energy.LossIdleListening,
			m.radio.RxPowerW()*idle.Seconds())
	}

	m.stats.BeaconsHeard++
	m.missed = 0
	m.t0 = airStart
	m.cycle = sim.Time(b.CycleMicros) * sim.Microsecond
	metrics.Record2(m.tracer, now, m.trace, metrics.KindBeaconRx, "seq=%d cycle=%v", b.Seq, m.cycle)

	if m.state == stateSearching {
		m.state = stateRequesting
	}
	if m.beaconOnly && m.state == stateRequesting {
		// A beacon-only node never requests a slot: synchronise and park.
		m.park()
	}

	found := false
	for _, e := range b.Entries {
		if e.NodeID != m.cfg.NodeID {
			continue
		}
		found = true
		if m.state == stateParked {
			// We released this slot; a stale table row (our release
			// frame lost, silence reclaim still pending) must not
			// re-join us.
			break
		}
		if m.state != stateJoined {
			m.join(int(e.Slot))
		} else {
			m.slot = int(e.Slot)
		}
		break
	}
	if m.cfg.Protocol == ProtoDynamic && m.state == stateJoined && !found {
		// The base station no longer lists us: rejoin.
		m.rejoin()
		return
	}

	// The beacon-parse task models the per-cycle OS/MAC work; the
	// protocol's access step runs when it completes.
	m.sched.Interrupt("beacon-parse", m.parseCycles(), afterParse)
}

// windowStride reports how many cycles ahead the next beacon window
// sits: 1 normally, the doze ratio when parked.
func (m *beaconSync) windowStride() sim.Time {
	if m.state == stateParked {
		return parkBeaconEvery
	}
	return 1
}

// scheduleNextWindow arms the receiver for the next expected beacon.
//
//hot:path
func (m *beaconSync) scheduleNextWindow() {
	stride := m.windowStride()
	openAt := m.t0 + m.local(stride*m.cycle-m.guard()-m.cfg.Profile.Radio.RxSettle)
	openAt = max(openAt, m.k.Now()) // degenerate cycles: open immediately
	m.k.ScheduleArgAt(openAt, m.onWindow, m.gen<<windowStrideBits|uint64(stride))
}

// windowOpened turns the receiver on for an expected beacon and arms the
// window's timeout.
//
//hot:path
func (m *beaconSync) windowOpened(k *sim.Kernel) {
	if k.Arg()>>windowStrideBits != m.gen {
		return // armed before a crash
	}
	stride := sim.Time(k.Arg() & (1<<windowStrideBits - 1))
	if m.window.open || m.state == stateSearching {
		return
	}
	if m.radio.Mode() == radio.ModeTx {
		// A late contention burst is still draining; its completion
		// handler powers the radio down, and the beacon is lost this
		// cycle (the budget margins make this rare).
		m.windowLost()
		return
	}
	p := m.cfg.Profile
	m.window.open, m.window.at = true, k.Now()
	m.radio.SetRxAddresses(m.cfg.Plan.Beacon)
	m.radio.StartRx()
	// The timeout sits one guard past the locally-expected beacon so the
	// tolerance to clock error is symmetric: ±guard/cycle for early and
	// late clocks alike. A saturated MCU can delay the whole pipeline
	// past the nominal deadline; clamp so the window closes immediately
	// instead of scheduling into the past.
	deadline := m.t0 + m.local(stride*m.cycle) + m.guard() +
		p.Radio.Airtime(m.maxBeaconPayload()) +
		p.Radio.RxClockOut(m.maxBeaconPayload()) + 500*sim.Microsecond
	m.window.timeout = k.ScheduleAt(max(deadline, k.Now()), m.onWindow)
}

// windowTimedOut handles a silent beacon window.
//
//hot:path
func (m *beaconSync) windowTimedOut() {
	if !m.window.expire() {
		return
	}
	m.endWindow(&m.window)
	m.windowLost()
}

// windowLost dead-reckons past a beacon window that stayed silent or
// could not open, and rejoins after too many in a row.
func (m *beaconSync) windowLost() {
	m.stats.BeaconsMissed++
	m.missed++
	if m.missed >= missedBeaconRejoinThreshold {
		m.rejoin()
		return
	}
	// Dead-reckon the next cycle from the last good reference; drift
	// compounds here, one silent cycle (or dozed stretch) at a time.
	m.t0 += m.local(m.windowStride() * m.cycle)
	m.scheduleNextWindow()
}

// rejoin abandons the slot and restarts the join procedure.
func (m *beaconSync) rejoin() {
	m.stats.Rejoins++
	m.leave(stateSearching)
	m.startRejoinClock()
	m.missed = 0
	m.listen()
}
