package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Address is an nRF2401 pipe address. The radio is configured with 3
// address bytes on this platform, so only the low 24 bits are used on the
// air.
type Address uint32

// AddressBytes is the configured on-air address width.
const AddressBytes = 3

// Well-known addresses of the BAN. The nRF2401 has no true broadcast:
// "broadcast" beacons work because every node configures its receive
// address to the shared beacon address while listening for beacons.
const (
	// AddrBeacon is the shared network address beacons are sent to.
	AddrBeacon Address = 0xB0BEAC
	// AddrBSData is the base station's data-pipe address; streaming and
	// beat frames are sent here and carry no in-payload header (the slot
	// timing identifies the sender).
	AddrBSData Address = 0xB5DA7A
	// AddrBSControl is the base station's control-pipe address; slot
	// requests are sent here.
	AddrBSControl Address = 0xB5C791
)

// NodeAddress derives the unicast address of sensor node id (used for
// acknowledgements and grants).
func NodeAddress(id uint8) Address { return Address(0x4E0000 | uint32(id)) }

// AddressPlan is the address assignment of one BAN. Co-located networks
// (one patient's BAN next to another's) share the 2.4 GHz channel but use
// distinct address sets, so their frames reach each other's radios only
// to be rejected by the hardware address filter — at full receive-energy
// cost, and still colliding on the air.
type AddressPlan struct {
	Beacon  Address
	BSData  Address
	BSCtrl  Address
	nodeTag uint32
}

// DefaultPlan is the address plan of a standalone BAN, matching the
// package-level constants.
func DefaultPlan() AddressPlan {
	return AddressPlan{Beacon: AddrBeacon, BSData: AddrBSData, BSCtrl: AddrBSControl, nodeTag: 0x4E0000}
}

// PlanForNetwork derives a distinct address plan for network n (0 = the
// default plan).
func PlanForNetwork(n uint8) AddressPlan {
	if n == 0 {
		return DefaultPlan()
	}
	shift := uint32(n) << 8
	return AddressPlan{
		Beacon:  Address(uint32(AddrBeacon) ^ shift<<8),
		BSData:  Address(uint32(AddrBSData) ^ shift<<8),
		BSCtrl:  Address(uint32(AddrBSControl) ^ shift<<8),
		nodeTag: 0x4E0000 ^ shift<<8,
	}
}

// NodeAddr derives the unicast address of node id within the plan.
func (p AddressPlan) NodeAddr(id uint8) Address {
	return Address(p.nodeTag | uint32(id))
}

// Frame is one ShockBurst frame as handed to the radio: destination
// address plus payload. The preamble and CRC are generated by the radio
// hardware (modelled in AppendEncode).
type Frame struct {
	Dest    Address
	Payload []byte
}

// AppendEncode appends the frame's on-air image minus the preamble to
// dst: 3 address bytes, the payload, and the CRC-16 over both — exactly
// the bytes the nRF2401 clocks through its CRC unit. With a scratch
// buffer of sufficient capacity it allocates nothing; the radio's
// transmit path reuses one buffer per radio this way.
//
//hot:path
func (f Frame) AppendEncode(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(f.Dest>>16), byte(f.Dest>>8), byte(f.Dest))
	dst = append(dst, f.Payload...)
	crc := CRC16(dst[start:])
	return binary.BigEndian.AppendUint16(dst, crc)
}

// EncodedBytes reports the on-air image size AppendEncode would add,
// without building it. Airtime computations use this.
func (f Frame) EncodedBytes() int { return AddressBytes + len(f.Payload) + 2 }

// ErrFrameTooShort reports an on-air image shorter than address + CRC.
var ErrFrameTooShort = errors.New("packet: frame image too short")

// DecodeInPlace parses an on-air image (possibly corrupted in flight)
// and reports whether its CRC passed; a failing frame is still returned
// so callers can account for the energy spent receiving it. The frame's
// Payload aliases image, so it must be consumed (or copied) before the
// image buffer is reused. The radio decodes into a per-radio scratch
// buffer this way, so steady-state reception allocates nothing.
//
//hot:path
func DecodeInPlace(image []byte) (Frame, bool, error) {
	if len(image) < AddressBytes+2 {
		return Frame{}, false, ErrFrameTooShort
	}
	body := image[:len(image)-2]
	wantCRC := binary.BigEndian.Uint16(image[len(image)-2:])
	ok := CRC16(body) == wantCRC
	dest := Address(uint32(body[0])<<16 | uint32(body[1])<<8 | uint32(body[2]))
	return Frame{Dest: dest, Payload: body[AddressBytes:]}, ok, nil
}

// Kind tags the control packets of the TDMA protocols. Data frames carry
// no kind byte (their 18-byte payload is raw packed samples; the data
// pipe address and the slot timing identify them).
type Kind uint8

const (
	// KindBeacon marks synchronisation beacons (SB slots).
	KindBeacon Kind = 0xB1
	// KindSSR marks slot requests (SSRi in the paper's timelines).
	KindSSR Kind = 0x52
	// KindAck marks base-station acknowledgements.
	KindAck Kind = 0xA0
	// KindBeat marks Rpeak beat-event packets.
	KindBeat Kind = 0xE7
	// KindHRV marks heart-rate-variability summary packets.
	KindHRV Kind = 0x48
	// KindEEG marks EEG activity-summary packets.
	KindEEG Kind = 0x33
	// KindRelease marks voluntary slot releases (a low-battery node
	// handing its slot back before parking in beacon-only mode).
	KindRelease Kind = 0x5E
	// KindStrobe marks LPL preamble strobes: the short packets a sender
	// repeats until the duty-cycled receiver wakes (X-MAC style).
	KindStrobe Kind = 0x57
	// KindStrobeAck marks the receiver's early ack that truncates a
	// strobe train and invites the payload frame.
	KindStrobeAck Kind = 0xEA
)

// SlotEntry is one (node, slot) binding announced in a beacon: a grant in
// the static TDMA, a slot-table row in the dynamic TDMA.
type SlotEntry struct {
	NodeID uint8
	Slot   uint8
}

// Beacon is the periodic synchronisation packet the base station sends in
// its SB slot. CycleMicros carries the current TDMA cycle length so
// dynamic-TDMA nodes can follow run-time cycle changes; Entries carries
// grants (static) or the full slot table (dynamic).
type Beacon struct {
	Seq         uint16
	CycleMicros uint32
	Entries     []SlotEntry
}

// BeaconBaseBytes is the encoded size of a beacon with no entries.
const BeaconBaseBytes = 8

// SlotEntryBytes is the per-entry addition to an encoded beacon.
const SlotEntryBytes = 2

// AppendMarshal encodes the beacon payload onto dst.
//
//hot:path
func (b Beacon) AppendMarshal(dst []byte) []byte {
	dst = append(dst, byte(KindBeacon))
	dst = binary.BigEndian.AppendUint16(dst, b.Seq)
	dst = binary.BigEndian.AppendUint32(dst, b.CycleMicros)
	dst = append(dst, byte(len(b.Entries)))
	for _, e := range b.Entries {
		dst = append(dst, e.NodeID, e.Slot)
	}
	return dst
}

// EncodedBytes reports the marshalled beacon size without building it.
func (b Beacon) EncodedBytes() int {
	return BeaconBaseBytes + SlotEntryBytes*len(b.Entries)
}

// ParseBeacon decodes a beacon payload, appending the entries to
// entries (pass a reused slice truncated to zero length) and reporting
// whether the payload is a well-formed beacon, so a receiver that reuses
// its entry storage decodes without allocating.
//
//hot:path
func ParseBeacon(p []byte, entries []SlotEntry) (Beacon, bool) {
	if len(p) < BeaconBaseBytes || Kind(p[0]) != KindBeacon {
		return Beacon{}, false
	}
	n := int(p[7])
	if len(p) < BeaconBaseBytes+SlotEntryBytes*n {
		return Beacon{}, false
	}
	for i := 0; i < n; i++ {
		off := BeaconBaseBytes + SlotEntryBytes*i
		entries = append(entries, SlotEntry{NodeID: p[off], Slot: p[off+1]})
	}
	return Beacon{
		Seq:         binary.BigEndian.Uint16(p[1:3]),
		CycleMicros: binary.BigEndian.Uint32(p[3:7]),
		Entries:     entries,
	}, true
}

// SSR is a slot request: the join handshake of both TDMA variants
// (SSRi in Figures 2 and 3).
type SSR struct {
	NodeID uint8
	Nonce  uint16
}

// SSRBytes is the encoded slot-request size.
const SSRBytes = 4

// AppendMarshal encodes the slot-request payload onto dst.
//
//hot:path
func (s SSR) AppendMarshal(dst []byte) []byte {
	dst = append(dst, byte(KindSSR), s.NodeID)
	return binary.BigEndian.AppendUint16(dst, s.Nonce)
}

// errNotSSR, errNotRelease and errNotStrobe are the control-pipe decode
// failures. They are built once: a base station tries its decoders in
// turn on every control frame, so the miss is routine.
var (
	errNotSSR     = fmt.Errorf("packet: not a %d-byte slot request", SSRBytes)
	errNotRelease = fmt.Errorf("packet: not a %d-byte slot release", ReleaseBytes)
	errNotStrobe  = fmt.Errorf("packet: not a %d-byte strobe", StrobeBytes)
)

// UnmarshalSSR decodes a slot-request payload.
func UnmarshalSSR(p []byte) (SSR, error) {
	if len(p) != SSRBytes || Kind(p[0]) != KindSSR {
		return SSR{}, errNotSSR
	}
	return SSR{NodeID: p[1], Nonce: binary.BigEndian.Uint16(p[2:4])}, nil
}

// Release is a voluntary slot release: a node entering beacon-only mode
// (battery graceful degradation) tells the base station to free its slot
// now instead of waiting out the silence-reclaim window, so the dynamic
// cycle compacts immediately. It shares the control pipe with SSR; the
// distinct length and kind byte disambiguate.
type Release struct {
	NodeID uint8
}

// ReleaseBytes is the encoded slot-release size.
const ReleaseBytes = 2

// AppendMarshal encodes the slot-release payload onto dst.
//
//hot:path
func (r Release) AppendMarshal(dst []byte) []byte {
	return append(dst, byte(KindRelease), r.NodeID)
}

// UnmarshalRelease decodes a slot-release payload.
func UnmarshalRelease(p []byte) (Release, error) {
	if len(p) != ReleaseBytes || Kind(p[0]) != KindRelease {
		return Release{}, errNotRelease
	}
	return Release{NodeID: p[1]}, nil
}

// Ack is the base station's acknowledgement of a data frame.
type Ack struct{}

// AckBytes is the encoded acknowledgement size.
const AckBytes = 1

// AppendMarshal encodes the acknowledgement payload onto dst.
//
//hot:path
func (Ack) AppendMarshal(dst []byte) []byte { return append(dst, byte(KindAck)) }

// IsAck reports whether p is an acknowledgement payload.
func IsAck(p []byte) bool { return len(p) == AckBytes && Kind(p[0]) == KindAck }

// Strobe is one LPL preamble packet: the sender's short announcement,
// repeated with listen gaps, that a payload frame is waiting for the
// duty-cycled receiver.
type Strobe struct {
	NodeID uint8
}

// StrobeBytes is the encoded strobe size.
const StrobeBytes = 2

// AppendMarshal encodes the strobe payload onto dst.
//
//hot:path
func (s Strobe) AppendMarshal(dst []byte) []byte {
	return append(dst, byte(KindStrobe), s.NodeID)
}

// UnmarshalStrobe decodes a strobe payload.
func UnmarshalStrobe(p []byte) (Strobe, error) {
	if len(p) != StrobeBytes || Kind(p[0]) != KindStrobe {
		return Strobe{}, errNotStrobe
	}
	return Strobe{NodeID: p[1]}, nil
}

// StrobeAck is the receiver's early acknowledgement of a strobe: it
// truncates the sender's strobe train (the energy saving of X-MAC over
// long-preamble LPL) and opens the receive window for the payload.
type StrobeAck struct{}

// StrobeAckBytes is the encoded early-ack size.
const StrobeAckBytes = 1

// AppendMarshal encodes the early-ack payload onto dst.
func (StrobeAck) AppendMarshal(dst []byte) []byte { return append(dst, byte(KindStrobeAck)) }

// IsStrobeAck reports whether p is an early-ack payload.
func IsStrobeAck(p []byte) bool {
	return len(p) == StrobeAckBytes && Kind(p[0]) == KindStrobeAck
}

// DataHeaderBytes is the sender-identification header contention MACs
// prepend to data payloads: with no slot timing to attribute a frame,
// the first byte carries the node ID.
const DataHeaderBytes = 1

// Beat is the Rpeak application's event packet: "a heart beat was
// detected on Channel, Lag samples before this packet was assembled"
// (§5.2: the detector returns how many samples ago the beat occurred).
type Beat struct {
	Channel uint8
	Lag     uint16
	Seq     uint8
}

// BeatBytes is the encoded beat-packet size.
const BeatBytes = 5

// AppendMarshal encodes the beat payload onto dst.
func (b Beat) AppendMarshal(dst []byte) []byte {
	dst = append(dst, byte(KindBeat), b.Channel)
	dst = binary.BigEndian.AppendUint16(dst, b.Lag)
	return append(dst, b.Seq)
}

// UnmarshalBeat decodes a beat payload.
func UnmarshalBeat(p []byte) (Beat, error) {
	if len(p) != BeatBytes || Kind(p[0]) != KindBeat {
		return Beat{}, fmt.Errorf("packet: not a %d-byte beat packet", BeatBytes)
	}
	return Beat{Channel: p[1], Lag: binary.BigEndian.Uint16(p[2:4]), Seq: p[4]}, nil
}

// HRV is a heart-rate-variability summary: statistics over a window of
// consecutive RR (beat-to-beat) intervals, computed on the node. It is
// the next step down the §5.2 path of trading microcontroller work for
// radio silence: instead of one packet per beat, one packet per window.
type HRV struct {
	// MeanRRMs is the mean RR interval of the window, milliseconds.
	MeanRRMs uint16
	// RMSSDMs is the root-mean-square of successive RR differences,
	// milliseconds — the standard short-term HRV measure.
	RMSSDMs uint16
	// MinRRMs and MaxRRMs bound the window.
	MinRRMs uint16
	MaxRRMs uint16
	// Beats is the number of intervals summarised.
	Beats uint8
	// Seq counts windows.
	Seq uint8
}

// HRVBytes is the encoded HRV summary size.
const HRVBytes = 11

// Marshal encodes the HRV payload.
func (h HRV) Marshal() []byte {
	return h.AppendMarshal(make([]byte, 0, HRVBytes))
}

// AppendMarshal encodes the HRV payload onto dst.
func (h HRV) AppendMarshal(dst []byte) []byte {
	dst = append(dst, byte(KindHRV))
	dst = binary.BigEndian.AppendUint16(dst, h.MeanRRMs)
	dst = binary.BigEndian.AppendUint16(dst, h.RMSSDMs)
	dst = binary.BigEndian.AppendUint16(dst, h.MinRRMs)
	dst = binary.BigEndian.AppendUint16(dst, h.MaxRRMs)
	return append(dst, h.Beats, h.Seq)
}

// UnmarshalHRV decodes an HRV payload.
func UnmarshalHRV(p []byte) (HRV, error) {
	if len(p) != HRVBytes || Kind(p[0]) != KindHRV {
		return HRV{}, fmt.Errorf("packet: not a %d-byte HRV packet", HRVBytes)
	}
	return HRV{
		MeanRRMs: binary.BigEndian.Uint16(p[1:3]),
		RMSSDMs:  binary.BigEndian.Uint16(p[3:5]),
		MinRRMs:  binary.BigEndian.Uint16(p[5:7]),
		MaxRRMs:  binary.BigEndian.Uint16(p[7:9]),
		Beats:    p[9],
		Seq:      p[10],
	}, nil
}
