package packet

import "testing"

// TestScratchPathsAllocateNothing locks in the zero-alloc contract for
// the encode/decode hot path with caller-supplied buffers.
func TestScratchPathsAllocateNothing(t *testing.T) {
	f := Frame{Dest: AddrBSData, Payload: make([]byte, 18)}
	scratch := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		scratch = f.AppendEncode(scratch[:0])
	}); n != 0 {
		t.Fatalf("AppendEncode allocates %v per run", n)
	}
	image := f.AppendEncode(nil)
	if n := testing.AllocsPerRun(100, func() {
		_, _, _ = DecodeInPlace(image)
	}); n != 0 {
		t.Fatalf("DecodeInPlace allocates %v per run", n)
	}
	b := Beacon{Seq: 1, CycleMicros: 30000, Entries: []SlotEntry{{1, 1}, {2, 2}, {3, 3}}}
	if n := testing.AllocsPerRun(100, func() {
		scratch = b.AppendMarshal(scratch[:0])
	}); n != 0 {
		t.Fatalf("Beacon.AppendMarshal allocates %v per run", n)
	}
}
