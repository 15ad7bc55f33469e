// Package packet defines the over-the-air frame format of the nRF2401
// ShockBurst link, the CRC the radio computes in hardware, and the typed
// protocol packets (beacons, data, slot requests, grants, acks) the TDMA
// MACs exchange.
package packet

// CRC16 computes the CRC-16-CCITT (polynomial 0x1021, initial value
// 0xFFFF) over data. This is the 16-bit CRC option of the nRF2401's
// embedded packet validation; modelling it with the real polynomial (as
// opposed to TOSSIM's assume-no-errors shortcut) is what lets the
// simulator discard collided and bit-flipped frames the same way the
// hardware does (§4.2 of the paper). It runs a byte at a time from a
// 256-entry table, bit-identical to the shift-register form.
//
//hot:path
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// crcTable[i] is the shift register after clocking byte i through a
// zeroed CRC-16-CCITT register: the per-byte step of CRC16.
var crcTable = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for range 8 {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()
