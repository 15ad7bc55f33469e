package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCRC16KnownVectors(t *testing.T) {
	// CRC-16/CCITT-FALSE reference vectors (poly 0x1021, init 0xFFFF).
	cases := []struct {
		in   string
		want uint16
	}{
		{"", 0xFFFF},
		{"123456789", 0x29B1},
		{"A", 0xB915},
	}
	for _, c := range cases {
		if got := CRC16([]byte(c.in)); got != c.want {
			t.Errorf("CRC16(%q) = 0x%04X, want 0x%04X", c.in, got, c.want)
		}
	}
}

func TestCRC16DetectsSingleBitFlips(t *testing.T) {
	data := []byte{0x12, 0x34, 0x56, 0x78, 0x9A}
	orig := CRC16(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << uint(bit)
			if CRC16(mut) == orig {
				t.Fatalf("single-bit flip at byte %d bit %d undetected", i, bit)
			}
		}
	}
}

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	f := Frame{Dest: AddrBSData, Payload: []byte{1, 2, 3, 4, 5}}
	img := f.AppendEncode(nil)
	if len(img) != AddressBytes+5+2 || f.EncodedBytes() != len(img) {
		t.Fatalf("image length = %d, EncodedBytes = %d, want %d", len(img), f.EncodedBytes(), AddressBytes+7)
	}
	// Appending after existing content leaves it in place.
	if prefixed := f.AppendEncode([]byte{0xAA}); prefixed[0] != 0xAA || !bytes.Equal(prefixed[1:], img) {
		t.Fatalf("AppendEncode with prefix = %x", prefixed)
	}
	got, ok, err := DecodeInPlace(img)
	if err != nil || !ok {
		t.Fatalf("DecodeInPlace: ok=%v err=%v", ok, err)
	}
	if got.Dest != f.Dest || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
	// The payload aliases the image rather than copying it.
	img[AddressBytes] = 0xFF
	if got.Payload[0] != 0xFF {
		t.Fatal("DecodeInPlace copied the payload")
	}
}

func TestDecodeCorruptedFrameFailsCRC(t *testing.T) {
	f := Frame{Dest: AddrBeacon, Payload: []byte{9, 8, 7}}
	img := f.AppendEncode(nil)
	img[4] ^= 0x40 // flip a payload bit in flight
	_, ok, err := DecodeInPlace(img)
	if err != nil {
		t.Fatalf("DecodeInPlace error: %v", err)
	}
	if ok {
		t.Fatalf("corrupted frame passed CRC")
	}
}

func TestDecodeAddressCorruptionFailsCRC(t *testing.T) {
	f := Frame{Dest: NodeAddress(3), Payload: []byte{1}}
	img := f.AppendEncode(nil)
	img[0] ^= 0x01
	_, ok, _ := DecodeInPlace(img)
	if ok {
		t.Fatalf("address corruption passed CRC")
	}
}

func TestDecodeTooShort(t *testing.T) {
	if _, _, err := DecodeInPlace([]byte{1, 2, 3, 4}); err == nil {
		t.Fatalf("want ErrFrameTooShort")
	}
}

func TestDecodeEmptyPayloadFrame(t *testing.T) {
	f := Frame{Dest: NodeAddress(1)}
	got, ok, err := DecodeInPlace(f.AppendEncode(nil))
	if err != nil || !ok {
		t.Fatalf("empty-payload frame: ok=%v err=%v", ok, err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v, want empty", got.Payload)
	}
}

// Property: DecodeInPlace(Encode(f)) is the identity with a passing CRC, for all
// destinations and payloads.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(dest uint32, payload []byte) bool {
		fr := Frame{Dest: Address(dest & 0xFFFFFF), Payload: payload}
		got, ok, err := DecodeInPlace(fr.AppendEncode(nil))
		return err == nil && ok && got.Dest == fr.Dest && bytes.Equal(got.Payload, fr.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit corruption of the on-air image is caught by
// the CRC.
func TestQuickSingleBitCorruptionCaught(t *testing.T) {
	f := func(dest uint32, payload []byte, pos uint16) bool {
		fr := Frame{Dest: Address(dest & 0xFFFFFF), Payload: payload}
		img := fr.AppendEncode(nil)
		i := int(pos) % (len(img) * 8)
		img[i/8] ^= 1 << uint(i%8)
		_, ok, err := DecodeInPlace(img)
		return err == nil && !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAddressUnique(t *testing.T) {
	seen := map[Address]bool{AddrBeacon: true, AddrBSData: true, AddrBSControl: true}
	for id := 0; id < 256; id++ {
		a := NodeAddress(uint8(id))
		if seen[a] {
			t.Fatalf("address collision for node %d", id)
		}
		seen[a] = true
	}
}

func TestBeaconMarshalSizes(t *testing.T) {
	b := Beacon{Seq: 7, CycleMicros: 30000}
	if got := len(b.AppendMarshal(nil)); got != BeaconBaseBytes || b.EncodedBytes() != got {
		t.Fatalf("empty beacon = %d bytes, want %d", got, BeaconBaseBytes)
	}
	b.Entries = []SlotEntry{{1, 0}, {2, 1}, {3, 2}}
	if got := len(b.AppendMarshal(nil)); got != BeaconBaseBytes+3*SlotEntryBytes || b.EncodedBytes() != got {
		t.Fatalf("3-entry beacon = %d bytes, want %d", got, BeaconBaseBytes+6)
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	in := Beacon{
		Seq:         1234,
		CycleMicros: 60000,
		Entries:     []SlotEntry{{NodeID: 5, Slot: 2}, {NodeID: 9, Slot: 4}},
	}
	out, ok := ParseBeacon(in.AppendMarshal(nil), nil)
	if !ok {
		t.Fatal("ParseBeacon rejected a marshalled beacon")
	}
	if out.Seq != in.Seq || out.CycleMicros != in.CycleMicros || len(out.Entries) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.Entries {
		if out.Entries[i] != in.Entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, out.Entries[i], in.Entries[i])
		}
	}
}

func TestUnmarshalBeaconErrors(t *testing.T) {
	if _, ok := ParseBeacon([]byte{1, 2}, nil); ok {
		t.Fatalf("short payload accepted")
	}
	if _, ok := ParseBeacon(SSR{NodeID: 1}.AppendMarshal(nil), nil); ok {
		t.Fatalf("SSR payload accepted as beacon")
	}
	// A beacon-sized payload with another packet's kind byte.
	notBeacon := Beacon{Seq: 1, CycleMicros: 1}.AppendMarshal(nil)
	notBeacon[0] = byte(KindSSR)
	if _, ok := ParseBeacon(notBeacon, nil); ok {
		t.Fatalf("non-beacon kind accepted as beacon")
	}
	// Declared entry count exceeding the payload length.
	b := Beacon{Seq: 1, CycleMicros: 1}.AppendMarshal(nil)
	b[7] = 9
	if _, ok := ParseBeacon(b, nil); ok {
		t.Fatalf("truncated entry table accepted")
	}
}

// Property: beacon marshalling round-trips for any entry table that fits
// a frame.
func TestQuickBeaconRoundTrip(t *testing.T) {
	f := func(seq uint16, cyc uint32, raw []uint16) bool {
		if len(raw) > 9 {
			raw = raw[:9]
		}
		in := Beacon{Seq: seq, CycleMicros: cyc}
		for _, r := range raw {
			in.Entries = append(in.Entries, SlotEntry{NodeID: uint8(r >> 8), Slot: uint8(r)})
		}
		out, ok := ParseBeacon(in.AppendMarshal(nil), nil)
		if !ok || out.Seq != in.Seq || out.CycleMicros != in.CycleMicros ||
			len(out.Entries) != len(in.Entries) {
			return false
		}
		for i := range in.Entries {
			if out.Entries[i] != in.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSSRRoundTrip(t *testing.T) {
	in := SSR{NodeID: 3, Nonce: 0xBEEF}
	p := in.AppendMarshal(nil)
	if len(p) != SSRBytes {
		t.Fatalf("SSR = %d bytes, want %d", len(p), SSRBytes)
	}
	out, err := UnmarshalSSR(p)
	if err != nil || out != in {
		t.Fatalf("round trip: %+v err=%v", out, err)
	}
	if _, err := UnmarshalSSR([]byte{1}); err == nil {
		t.Fatalf("short SSR accepted")
	}
	if _, err := UnmarshalSSR(Ack{}.AppendMarshal(nil)); err == nil {
		t.Fatalf("ack accepted as SSR")
	}
}

func TestAck(t *testing.T) {
	p := Ack{}.AppendMarshal(nil)
	if len(p) != AckBytes {
		t.Fatalf("ack = %d bytes, want %d", len(p), AckBytes)
	}
	if !IsAck(p) {
		t.Fatalf("IsAck(own marshal) = false")
	}
	if IsAck([]byte{0x00}) || IsAck(nil) || IsAck([]byte{byte(KindAck), 0}) {
		t.Fatalf("IsAck accepted a non-ack")
	}
}

func TestBeatRoundTrip(t *testing.T) {
	in := Beat{Channel: 1, Lag: 74, Seq: 9}
	p := in.AppendMarshal(nil)
	if len(p) != BeatBytes {
		t.Fatalf("beat = %d bytes, want %d", len(p), BeatBytes)
	}
	out, err := UnmarshalBeat(p)
	if err != nil || out != in {
		t.Fatalf("round trip: %+v err=%v", out, err)
	}
	if _, err := UnmarshalBeat(p[:3]); err == nil {
		t.Fatalf("short beat accepted")
	}
}

func TestHRVRoundTrip(t *testing.T) {
	in := HRV{MeanRRMs: 800, RMSSDMs: 42, MinRRMs: 760, MaxRRMs: 850, Beats: 16, Seq: 3}
	p := in.Marshal()
	if len(p) != HRVBytes {
		t.Fatalf("hrv = %d bytes, want %d", len(p), HRVBytes)
	}
	out, err := UnmarshalHRV(p)
	if err != nil || out != in {
		t.Fatalf("round trip: %+v err=%v", out, err)
	}
	if got := in.AppendMarshal([]byte{0xAA}); got[0] != 0xAA || !bytes.Equal(got[1:], p) {
		t.Fatalf("AppendMarshal with prefix = %x, want aa%x", got, p)
	}
	if _, err := UnmarshalHRV(p[:5]); err == nil {
		t.Fatalf("short HRV accepted")
	}
	if _, err := UnmarshalHRV(Beat{}.AppendMarshal(nil)); err == nil {
		t.Fatalf("beat accepted as HRV")
	}
}

// Property: HRV summaries round-trip for all field values.
func TestQuickHRVRoundTrip(t *testing.T) {
	f := func(mean, rmssd, lo, hi uint16, beats, seq uint8) bool {
		in := HRV{MeanRRMs: mean, RMSSDMs: rmssd, MinRRMs: lo, MaxRRMs: hi, Beats: beats, Seq: seq}
		out, err := UnmarshalHRV(in.Marshal())
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SSR and Beat round-trip for all field values.
func TestQuickControlRoundTrips(t *testing.T) {
	f := func(id uint8, nonce uint16, ch uint8, lag uint16, seq uint8) bool {
		s, err := UnmarshalSSR(SSR{NodeID: id, Nonce: nonce}.AppendMarshal(nil))
		if err != nil || s.NodeID != id || s.Nonce != nonce {
			return false
		}
		b, err := UnmarshalBeat(Beat{Channel: ch, Lag: lag, Seq: seq}.AppendMarshal(nil))
		return err == nil && b.Channel == ch && b.Lag == lag && b.Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
