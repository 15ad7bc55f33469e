package codec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBytesFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 2}, {2, 3}, {3, 5}, {4, 6}, {12, 18}, {13, 20},
	}
	for _, c := range cases {
		if got := BytesFor(c.n); got != c.want {
			t.Errorf("BytesFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPaperPayloadGeometry(t *testing.T) {
	// 12 samples of 12 bits = exactly the paper's 18-byte payload.
	if got := BytesFor(12); got != 18 {
		t.Fatalf("12 samples pack to %d bytes, want 18", got)
	}
	if got := SamplesIn(18); got != 12 {
		t.Fatalf("18 bytes hold %d samples, want 12", got)
	}
}

func TestPackUnpackKnown(t *testing.T) {
	in := []Sample{0x123, 0xABC, 0x000, 0xFFF}
	got, err := Unpack(Pack(in), len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("sample %d: got 0x%03X, want 0x%03X", i, got[i], in[i])
		}
	}
}

func TestPackMasksHighBits(t *testing.T) {
	in := []Sample{0xF123} // bits above 12 must be ignored
	got, err := Unpack(Pack(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x123 {
		t.Fatalf("got 0x%03X, want 0x123", got[0])
	}
}

func TestUnpackShortData(t *testing.T) {
	if _, err := Unpack([]byte{1, 2}, 2); err == nil {
		t.Fatalf("short data accepted")
	}
}

func TestUnpackZeroSamples(t *testing.T) {
	got, err := Unpack(nil, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("Unpack(nil, 0) = %v, %v", got, err)
	}
}

// Property: Pack/Unpack round-trips any 12-bit sample vector.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		in := make([]Sample, len(raw))
		for i, r := range raw {
			in[i] = Sample(r) & MaxSample
		}
		out, err := Unpack(Pack(in), len(in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: packed size matches BytesFor exactly.
func TestQuickPackedSize(t *testing.T) {
	f := func(n uint8) bool {
		in := make([]Sample, n)
		return len(Pack(in)) == BytesFor(int(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeBounds(t *testing.T) {
	if Quantize(-1) != 0 {
		t.Fatalf("Quantize(-1) = %d, want 0", Quantize(-1))
	}
	if Quantize(1) != MaxSample {
		t.Fatalf("Quantize(1) = %d, want %d", Quantize(1), MaxSample)
	}
	if Quantize(-5) != 0 || Quantize(5) != MaxSample {
		t.Fatalf("out-of-range inputs not clamped")
	}
	mid := Quantize(0)
	if mid < MaxSample/2-1 || mid > MaxSample/2+1 {
		t.Fatalf("Quantize(0) = %d, want ~%d", mid, MaxSample/2)
	}
}

// Property: quantisation error is bounded by one LSB over [-1, 1].
func TestQuickQuantizeError(t *testing.T) {
	lsb := 2.0 / float64(MaxSample)
	f := func(raw int16) bool {
		x := float64(raw) / 32768.0
		back := Dequantize(Quantize(x))
		return math.Abs(back-x) <= lsb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantize is monotone non-decreasing.
func TestQuickQuantizeMonotone(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := float64(a)/32768, float64(b)/32768
		if x > y {
			x, y = y, x
		}
		return Quantize(x) <= Quantize(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendPackMatchesPack checks the append form against Pack after a
// non-empty prefix and into reused scratch that holds stale bytes.
func TestAppendPackMatchesPack(t *testing.T) {
	samples := []Sample{0xFFF, 0x001, 0xABC, 0x123, 0x800, 0x7FF, 0x0F0}
	for n := 0; n <= len(samples); n++ {
		want := Pack(samples[:n])
		got := AppendPack([]byte{0xEE}, samples[:n])
		if got[0] != 0xEE || string(got[1:]) != string(want) {
			t.Fatalf("AppendPack(%d samples) = %x, want ee%x", n, got, want)
		}
		scratch := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
		if got := AppendPack(scratch[:0], samples[:n]); string(got) != string(want) {
			t.Fatalf("AppendPack into stale scratch = %x, want %x", got, want)
		}
	}
	buf := make([]byte, 0, 18)
	in := make([]Sample, 12)
	if a := testing.AllocsPerRun(100, func() { buf = AppendPack(buf[:0], in) }); a != 0 {
		t.Fatalf("AppendPack into sufficient scratch allocated %v times", a)
	}
}
