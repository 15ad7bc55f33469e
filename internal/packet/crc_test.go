package packet

import (
	"math/rand"
	"testing"
)

// crc16Bitwise is the shift-register form of CRC-16-CCITT, one bit per
// step: the oracle the table-driven CRC16 must match.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRC16TableMatchesBitwise compares the two forms over random data
// of random lengths, empty and frame-sized inputs included.
func TestCRC16TableMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 5000; n++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Fatalf("CRC16 of %d bytes = 0x%04X, bitwise oracle 0x%04X", len(data), got, want)
		}
	}
}

func FuzzCRC16TableMatchesBitwise(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("123456789"))
	f.Add(make([]byte, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Fatalf("CRC16(%x) = 0x%04X, bitwise oracle 0x%04X", data, got, want)
		}
	})
}
