// Package codec packs 12-bit ADC samples into byte payloads.
//
// The streaming application sends 18-byte payloads per TDMA cycle; with
// the ASIC's 12-bit converter that is exactly 12 samples (6 two-channel
// sample pairs), which is how the paper's sampling-frequency/cycle-length
// pairs (205 Hz/30 ms, 105/60, 70/90, 55/120) all land on the same
// payload size.
package codec

import "fmt"

// Sample is one 12-bit ADC conversion result. Only the low 12 bits are
// significant.
type Sample uint16

// MaxSample is the largest representable 12-bit value.
const MaxSample Sample = 0x0FFF

// BytesFor reports the packed size of n samples (two samples per 3 bytes,
// rounded up to whole bytes).
func BytesFor(n int) int { return (n*12 + 7) / 8 }

// SamplesIn reports how many whole samples fit in b bytes.
func SamplesIn(b int) int { return b * 8 / 12 }

// Pack encodes samples into the packed 12-bit little-nibble layout used
// on the air: sample i occupies bits [12i, 12i+12) of the output stream,
// LSB first within each byte.
func Pack(samples []Sample) []byte {
	return AppendPack(make([]byte, 0, BytesFor(len(samples))), samples)
}

// AppendPack packs samples as Pack does, appending the packed bytes to
// dst and returning the extended slice. With a scratch buffer of
// sufficient capacity it allocates nothing.
//
//hot:path
func AppendPack(dst []byte, samples []Sample) []byte {
	start := len(dst)
	for range BytesFor(len(samples)) {
		dst = append(dst, 0)
	}
	out := dst[start:]
	for i, s := range samples {
		v := uint32(s & MaxSample)
		bit := i * 12
		byteIdx := bit / 8
		shift := uint(bit % 8)
		out[byteIdx] |= byte(v << shift)
		out[byteIdx+1] |= byte(v >> (8 - shift))
		if shift > 4 { // the 12 bits spill into a third byte
			out[byteIdx+2] |= byte(v >> (16 - shift))
		}
	}
	return dst
}

// Unpack decodes n samples from packed data. It fails if data is too
// short for n samples.
func Unpack(data []byte, n int) ([]Sample, error) {
	if need := BytesFor(n); len(data) < need {
		return nil, fmt.Errorf("codec: need %d bytes for %d samples, have %d", need, n, len(data))
	}
	out := make([]Sample, n)
	for i := 0; i < n; i++ {
		bit := i * 12
		byteIdx := bit / 8
		shift := uint(bit % 8)
		v := uint32(data[byteIdx]) >> shift
		v |= uint32(data[byteIdx+1]) << (8 - shift)
		if shift > 4 {
			v |= uint32(data[byteIdx+2]) << (16 - shift)
		}
		out[i] = Sample(v) & MaxSample
	}
	return out, nil
}

// Quantize maps a physical signal value in [-1, +1] onto the 12-bit ADC
// range, clamping out-of-range inputs the way a saturating front-end
// does.
func Quantize(x float64) Sample {
	if x > 1 {
		x = 1
	}
	if x < -1 {
		x = -1
	}
	v := int((x + 1) / 2 * float64(MaxSample))
	if v < 0 {
		v = 0
	}
	if v > int(MaxSample) {
		v = int(MaxSample)
	}
	return Sample(v)
}

// Dequantize is the inverse mapping of Quantize back to [-1, +1].
func Dequantize(s Sample) float64 {
	return float64(s&MaxSample)/float64(MaxSample)*2 - 1
}
