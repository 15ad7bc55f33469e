// Package mac implements the networking stack of the BAN: the
// energy-efficient TDMA MAC layer of §3.2.2, in both the static variant
// (fixed slot count, joins answered from a bounded grant pool) and the
// dynamic variant (the cycle grows at run time as nodes join, slot table
// broadcast in every beacon).
//
// The base station regulates timing by broadcasting beacons in its SB
// slot; a sensor node joins by transmitting a slot request (SSR) — in the
// receive region for static TDMA, at a random offset inside the empty
// slot (ES) for dynamic TDMA — and then exchanges data with the base
// station in its assigned slot, sleeping its radio for the rest of the
// cycle.
package mac

import (
	"repro/internal/sim"
)

// Variant selects the TDMA flavour.
type Variant int

const (
	// Static is the fixed-slot-count TDMA of Figure 2.
	Static Variant = iota
	// Dynamic is the run-time-growing TDMA of Figure 3.
	Dynamic
)

// String names the variant.
func (v Variant) String() string {
	if v == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Mac is the application's view of the node-side MAC.
type Mac interface {
	// Start begins the join procedure (listen for a beacon, request a
	// slot).
	Start()
	// Send queues a data payload for transmission in the node's slot.
	// It reports false when the transmit queue is full (the payload is
	// dropped and counted). The MAC copies the payload, so the caller
	// may reuse its buffer as soon as Send returns.
	Send(payload []byte) bool
	// Joined reports whether the node holds a slot.
	Joined() bool
	// Slot reports the assigned slot index (valid when Joined).
	Slot() int
	// CycleLength reports the current TDMA cycle length as learned from
	// the most recent beacon.
	CycleLength() sim.Time
	// OnJoined registers a callback invoked once when the join
	// handshake completes (the node layer starts the application here).
	OnJoined(fn func())
	// Stats returns a copy of the MAC counters.
	Stats() Stats
}

// Stats counts node-MAC protocol events.
type Stats struct {
	BeaconsHeard  uint64
	BeaconsMissed uint64
	SSRSent       uint64
	DataSent      uint64
	DataAcked     uint64
	AckMissed     uint64
	Retries       uint64
	// DataDropped counts frames discarded after MaxRetries retransmission
	// attempts all went unacknowledged.
	DataDropped uint64
	// Abandoned counts transmitted frames whose acknowledgement window
	// was torn down before it resolved — a rejoin, park or crash
	// discarded the in-flight frame while its ack was still pending.
	//
	// Together these counters obey the frame-conservation laws checked
	// by AuditFrameStats at any instant:
	//
	//	AckMissed == Retries + DataDropped
	//	DataSent  == DataAcked + AckMissed + Abandoned + (0 or 1 pending)
	//
	// every transmitted burst either was acked, timed out (becoming a
	// retry or ending the frame's life), was abandoned by a state reset,
	// or is still awaiting its ack.
	Abandoned  uint64
	QueueDrops uint64
	Rejoins    uint64
	// CCAAttempts/CCABusy/CCAFails are the CSMA/CA channel-access
	// counters (zero for other protocols): clear-channel assessments
	// performed, busy verdicts among them, and transmission attempts
	// abandoned after MaxBackoffs consecutive busy verdicts.
	CCAAttempts uint64
	CCABusy     uint64
	CCAFails    uint64
	// StrobesSent/EarlyAcks/StrobeFails are the LPL preamble-sampling
	// counters (zero for other protocols): strobe preambles
	// transmitted, strobe trains truncated by the receiver's early ack,
	// and trains that exhausted their strobe budget unanswered.
	StrobesSent uint64
	EarlyAcks   uint64
	StrobeFails uint64
	// SlotsSkipped counts data slots slept through by the duty-cycle
	// stretch rung of the battery degradation ladder.
	SlotsSkipped uint64
	// ReleasesSent counts voluntary slot releases (beacon-only mode).
	ReleasesSent uint64
	// LatencySum/LatencyMax/LatencyCount aggregate the queueing delay
	// from Send() to the start of the transmitting burst — the
	// performance figure that pairs with the energy numbers: TDMA trades
	// latency (wait for your slot) for collision-free delivery.
	LatencySum   sim.Time
	LatencyMax   sim.Time
	LatencyCount uint64
}

// addLatency adds one Send-to-burst queueing delay to the aggregates.
func (s *Stats) addLatency(lat sim.Time) {
	s.LatencySum += lat
	s.LatencyCount++
	s.LatencyMax = max(s.LatencyMax, lat)
}

// AvgLatency reports the mean Send-to-burst queueing delay.
func (s Stats) AvgLatency() sim.Time {
	if s.LatencyCount == 0 {
		return 0
	}
	return s.LatencySum / sim.Time(s.LatencyCount)
}

// DefaultTxQueueCap bounds the node's pending-payload queue.
const DefaultTxQueueCap = 4

// DefaultMaxRetries bounds retransmissions of an unacknowledged frame.
const DefaultMaxRetries = 2

// missedBeaconRejoinThreshold forces a rejoin after this many
// consecutive silent beacon windows.
const missedBeaconRejoinThreshold = 5
