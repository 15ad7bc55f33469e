package packet

import (
	"bytes"
	"testing"
)

// FuzzDecode: arbitrary on-air images never crash the decoder, and any
// image that passes the CRC re-encodes to itself (the decoder is the
// inverse of the encoder on its range).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Frame{Dest: AddrBSData, Payload: []byte{1, 2, 3}}.AppendEncode(nil))
	f.Add(Frame{Dest: AddrBeacon}.AppendEncode(nil))
	f.Add([]byte{0xB0, 0xBE, 0xAC, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, image []byte) {
		fr, ok, err := DecodeInPlace(image)
		if err != nil {
			return // too short: fine
		}
		if !ok {
			return // CRC failure: fine
		}
		if got := fr.AppendEncode(nil); !bytes.Equal(got, image) {
			t.Fatalf("CRC-valid image does not round-trip: % x -> % x", image, got)
		}
	})
}

// FuzzUnmarshalBeacon: arbitrary payloads never crash ParseBeacon, and
// successfully parsed beacons re-marshal to a prefix-equal payload.
func FuzzUnmarshalBeacon(f *testing.F) {
	f.Add(Beacon{Seq: 1, CycleMicros: 30000}.AppendMarshal(nil))
	f.Add(Beacon{Seq: 9, CycleMicros: 60000, Entries: []SlotEntry{{1, 0}}}.AppendMarshal(nil))
	f.Add([]byte{0xB1, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, ok := ParseBeacon(payload, nil)
		if !ok {
			return
		}
		out := b.AppendMarshal(nil)
		if len(out) > len(payload) || !bytes.Equal(out, payload[:len(out)]) {
			t.Fatalf("parsed beacon does not re-marshal to its source")
		}
	})
}

// FuzzControlParsers: the fixed-size parsers are total.
func FuzzControlParsers(f *testing.F) {
	f.Add(SSR{NodeID: 1, Nonce: 2}.AppendMarshal(nil))
	f.Add(Beat{Channel: 1, Lag: 74, Seq: 2}.AppendMarshal(nil))
	f.Add(HRV{MeanRRMs: 800}.Marshal())
	f.Add(Release{NodeID: 4}.AppendMarshal(nil))
	f.Add(Strobe{NodeID: 3}.AppendMarshal(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if s, err := UnmarshalSSR(payload); err == nil {
			if !bytes.Equal(s.AppendMarshal(nil), payload) {
				t.Fatalf("SSR round trip broken")
			}
		}
		if b, err := UnmarshalBeat(payload); err == nil {
			if !bytes.Equal(b.AppendMarshal(nil), payload) {
				t.Fatalf("Beat round trip broken")
			}
		}
		if h, err := UnmarshalHRV(payload); err == nil {
			if !bytes.Equal(h.Marshal(), payload) {
				t.Fatalf("HRV round trip broken")
			}
		}
		if r, err := UnmarshalRelease(payload); err == nil {
			if !bytes.Equal(r.AppendMarshal(nil), payload) {
				t.Fatalf("Release round trip broken")
			}
		}
		if s, err := UnmarshalStrobe(payload); err == nil {
			if !bytes.Equal(s.AppendMarshal(nil), payload) {
				t.Fatalf("Strobe round trip broken")
			}
		}
		_ = IsAck(payload)
	})
}
