package channel

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
)

// fakeRadio implements Transceiver for channel tests.
type fakeRadio struct {
	id        string
	port      int // Attach's return
	listening bool
	since     sim.Time
	got       []Corruption
	images    [][]byte
}

func (f *fakeRadio) ChannelID() string { return f.id }
func (f *fakeRadio) ListeningSince() (sim.Time, bool) {
	return f.since, f.listening
}
func (f *fakeRadio) Deliver(image []byte, cause Corruption) {
	f.got = append(f.got, cause)
	f.images = append(f.images, image)
}
func (f *fakeRadio) EndBurst(uint64) {}

func setup() (*sim.Kernel, *Channel, *fakeRadio, *fakeRadio, *fakeRadio) {
	k := sim.NewKernel(5)
	c := New(k)
	a := &fakeRadio{id: "a", listening: true}
	b := &fakeRadio{id: "b", listening: true}
	bs := &fakeRadio{id: "bs", listening: true}
	a.port = c.Attach(a)
	b.port = c.Attach(b)
	bs.port = c.Attach(bs)
	return k, c, a, b, bs
}

func img() []byte {
	return packet.Frame{Dest: packet.AddrBSData, Payload: []byte{1, 2, 3, 4}}.AppendEncode(nil)
}

func TestCleanDeliveryToAllListeners(t *testing.T) {
	k, c, a, b, bs := setup()
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	if len(a.got) != 0 {
		t.Fatalf("sender received its own frame")
	}
	for _, r := range []*fakeRadio{b, bs} {
		if len(r.got) != 1 || r.got[0] != Clean {
			t.Fatalf("radio %s got %v, want one clean copy", r.id, r.got)
		}
	}
	// Clean copies pass the receiver-side CRC.
	_, ok, err := packet.DecodeInPlace(bs.images[0])
	if err != nil || !ok {
		t.Fatalf("clean copy failed CRC: ok=%v err=%v", ok, err)
	}
	st := c.Stats()
	if st.Transmissions != 1 || st.Deliveries != 2 || st.Collisions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverlapCorruptsBoth(t *testing.T) {
	k, c, a, b, bs := setup()
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Schedule(50*sim.Microsecond, func(*sim.Kernel) { c.BeginTx(b.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	// The base station hears both frames, both collided.
	if len(bs.got) != 2 {
		t.Fatalf("bs received %d frames, want 2", len(bs.got))
	}
	for i, cause := range bs.got {
		if cause != Collided {
			t.Fatalf("frame %d cause = %v, want collided", i, cause)
		}
		// Corrupted images must fail the receiver's CRC.
		if _, ok, _ := packet.DecodeInPlace(bs.images[i]); ok {
			t.Fatalf("collided frame %d passed CRC", i)
		}
	}
	if got := c.Stats().Collisions; got != 2 {
		t.Fatalf("collisions = %d, want 2", got)
	}
}

func TestBackToBackFramesDoNotCollide(t *testing.T) {
	k, c, a, b, bs := setup()
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	// Second frame starts exactly when the first ends.
	k.Schedule(100*sim.Microsecond, func(*sim.Kernel) { c.BeginTx(b.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	for i, cause := range bs.got {
		if cause != Clean {
			t.Fatalf("frame %d cause = %v, want clean", i, cause)
		}
	}
	if got := c.Stats().Collisions; got != 0 {
		t.Fatalf("collisions = %d, want 0", got)
	}
}

func TestLateListenerMissesFrame(t *testing.T) {
	k, c, a, b, _ := setup()
	b.listening = false
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Schedule(30*sim.Microsecond, func(k *sim.Kernel) {
		b.listening = true
		b.since = k.Now() // tuned in mid-frame
	})
	k.Run()
	if len(b.got) != 0 {
		t.Fatalf("mid-frame listener captured the frame")
	}
	if got := c.Stats().MissedStart; got != 1 {
		t.Fatalf("MissedStart = %d, want 1", got)
	}
}

func TestNotListeningGetsNothing(t *testing.T) {
	k, c, a, b, bs := setup()
	b.listening = false
	bs.listening = false
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	if len(b.got)+len(bs.got) != 0 {
		t.Fatalf("non-listening radios received frames")
	}
}

func TestDisconnectedLink(t *testing.T) {
	k, c, a, b, bs := setup()
	c.SetLink("a", "b", Link{Connected: false})
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	if len(b.got) != 0 {
		t.Fatalf("disconnected link delivered")
	}
	if len(bs.got) != 1 {
		t.Fatalf("unrelated link affected")
	}
}

func TestBERCorruptsProbabilistically(t *testing.T) {
	k, c, a, _, bs := setup()
	c.SetLink("a", "bs", Link{Connected: true, BER: 0.01}) // ~54% frame loss at 76 bits
	n := 500
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Millisecond
		k.ScheduleAt(at, func(*sim.Kernel) { c.BeginTx(a.port, img(), 76*sim.Microsecond, 0) })
	}
	k.Run()
	var bad int
	for _, cause := range bs.got {
		if cause == BitError {
			bad++
		}
	}
	if bad < n/4 || bad > 3*n/4 {
		t.Fatalf("bit-error rate implausible: %d/%d corrupted", bad, n)
	}
	// Every corrupted copy fails CRC.
	for i, cause := range bs.got {
		_, ok, _ := packet.DecodeInPlace(bs.images[i])
		if cause == BitError && ok {
			t.Fatalf("bit-error copy %d passed CRC", i)
		}
		if cause == Clean && !ok {
			t.Fatalf("clean copy %d failed CRC", i)
		}
	}
}

func TestZeroBERNeverCorrupts(t *testing.T) {
	k, c, a, _, bs := setup()
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * sim.Millisecond
		k.ScheduleAt(at, func(*sim.Kernel) { c.BeginTx(a.port, img(), 76*sim.Microsecond, 0) })
	}
	k.Run()
	for _, cause := range bs.got {
		if cause != Clean {
			t.Fatalf("corruption on a perfect link: %v", cause)
		}
	}
}

func TestBurstModelMeanBER(t *testing.T) {
	b := BurstModel{PGoodToBad: 0.01, PBadToGood: 0.09, BERGood: 0, BERBad: 1e-3}
	// Stationary bad fraction = 0.01/0.10 = 10% -> mean BER 1e-4.
	if got := b.MeanBER(); got < 0.99e-4 || got > 1.01e-4 {
		t.Fatalf("MeanBER = %v, want 1e-4", got)
	}
	flat := BurstModel{BERGood: 5e-5}
	if flat.MeanBER() != 5e-5 {
		t.Fatalf("degenerate model mean = %v", flat.MeanBER())
	}
}

// TestBurstyErrorsCluster: at equal average BER, the Gilbert-Elliott
// link produces longer runs of consecutive corrupted frames than the
// uniform link — the property that makes bursty channels interact
// differently with retry logic.
func TestBurstyErrorsCluster(t *testing.T) {
	run := func(uniform bool) (corrupt int, maxRun int) {
		k := sim.NewKernel(77)
		c := New(k)
		tx := &fakeRadio{id: "tx"}
		rx := &fakeRadio{id: "rx", listening: true}
		tx.port = c.Attach(tx)
		rx.port = c.Attach(rx)
		burst := &BurstModel{PGoodToBad: 0.02, PBadToGood: 0.18, BERGood: 0, BERBad: 9e-3}
		if uniform {
			c.SetLink("tx", "rx", Link{Connected: true, BER: burst.MeanBER()})
		} else {
			c.SetLink("tx", "rx", Link{Connected: true, Burst: burst})
		}
		const n = 4000
		for i := 0; i < n; i++ {
			at := sim.Time(i) * sim.Millisecond
			k.ScheduleAt(at, func(*sim.Kernel) { c.BeginTx(tx.port, img(), 76*sim.Microsecond, 0) })
		}
		k.Run()
		runLen := 0
		for _, cause := range rx.got {
			if cause == BitError {
				corrupt++
				runLen++
				if runLen > maxRun {
					maxRun = runLen
				}
			} else {
				runLen = 0
			}
		}
		return corrupt, maxRun
	}
	uniCorrupt, uniRun := run(true)
	burstCorrupt, burstRun := run(false)
	if uniCorrupt == 0 || burstCorrupt == 0 {
		t.Fatalf("no corruption observed: uniform=%d bursty=%d", uniCorrupt, burstCorrupt)
	}
	// Comparable averages (within 3x), but much longer bursts.
	ratio := float64(burstCorrupt) / float64(uniCorrupt)
	if ratio < 0.33 || ratio > 3 {
		t.Fatalf("average rates diverged: uniform=%d bursty=%d", uniCorrupt, burstCorrupt)
	}
	if burstRun <= uniRun {
		t.Fatalf("bursty max error run %d not above uniform %d", burstRun, uniRun)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k)
	c.Attach(&fakeRadio{id: "x"})
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate attach did not panic")
		}
	}()
	c.Attach(&fakeRadio{id: "x"})
}

func TestNonPositiveAirtimePanics(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k)
	r := &fakeRadio{id: "x"}
	r.port = c.Attach(r)
	defer func() {
		if recover() == nil {
			t.Fatalf("zero airtime did not panic")
		}
	}()
	c.BeginTx(r.port, []byte{1}, 0, 0)
}

func TestBeginTxUnknownPortPanics(t *testing.T) {
	_, c, _, _, _ := setup() // ports 0-2
	for _, port := range []int{3, -1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("port %d", port); !strings.Contains(msg, want) {
					t.Fatalf("BeginTx on port %d panicked with %q, want a message naming %q", port, msg, want)
				}
			}()
			c.BeginTx(port, img(), 100*sim.Microsecond, 0)
		}()
	}
	if st := c.Stats(); st.Transmissions != 0 {
		t.Fatalf("Transmissions = %d after rejected ports, want 0", st.Transmissions)
	}
}

func TestBusy(t *testing.T) {
	k, c, a, _, _ := setup()
	k.Schedule(0, func(*sim.Kernel) {
		c.BeginTx(a.port, img(), 100*sim.Microsecond, 0)
		if !c.Busy() {
			t.Errorf("channel not busy during transmission")
		}
	})
	k.Run()
	if c.Busy() {
		t.Errorf("channel busy after all frames ended")
	}
}

func TestThreeWayCollision(t *testing.T) {
	k, c, a, b, bs := setup()
	d := &fakeRadio{id: "d", listening: true}
	d.port = c.Attach(d)
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Schedule(10*sim.Microsecond, func(*sim.Kernel) { c.BeginTx(b.port, img(), 100*sim.Microsecond, 0) })
	k.Schedule(20*sim.Microsecond, func(*sim.Kernel) { c.BeginTx(bs.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	// d hears all three, all corrupted.
	if len(d.got) != 3 {
		t.Fatalf("d received %d, want 3", len(d.got))
	}
	for _, cause := range d.got {
		if cause != Collided {
			t.Fatalf("cause = %v, want collided", cause)
		}
	}
	if got := c.Stats().Collisions; got != 3 {
		t.Fatalf("collisions = %d, want 3", got)
	}
}

// Property: frames never vanish — every transmission is delivered to
// every connected listener that was tuned in before it started, exactly
// once, corrupted or not.
func TestQuickConservation(t *testing.T) {
	f := func(starts []uint16) bool {
		k := sim.NewKernel(11)
		c := New(k)
		tx := &fakeRadio{id: "tx"}
		rx := &fakeRadio{id: "rx", listening: true}
		tx.port = c.Attach(tx)
		rx.port = c.Attach(rx)
		if len(starts) > 40 {
			starts = starts[:40]
		}
		for _, s := range starts {
			at := sim.Time(s) * sim.Microsecond
			k.ScheduleAt(at, func(*sim.Kernel) {
				c.BeginTx(tx.port, img(), 50*sim.Microsecond, 0)
			})
		}
		k.Run()
		return len(rx.got) == len(starts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: overlap relation is symmetric — if any two transmissions
// from distinct senders overlap, both arrive corrupted at a third
// listener.
func TestQuickCollisionSymmetry(t *testing.T) {
	f := func(gap uint8) bool {
		k := sim.NewKernel(13)
		c := New(k)
		a := &fakeRadio{id: "a"}
		b := &fakeRadio{id: "b"}
		w := &fakeRadio{id: "w", listening: true}
		a.port = c.Attach(a)
		b.port = c.Attach(b)
		w.port = c.Attach(w)
		air := 100 * sim.Microsecond
		g := sim.Time(gap) * 2 * sim.Microsecond
		k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), air, 0) })
		k.ScheduleAt(g, func(*sim.Kernel) { c.BeginTx(b.port, img(), air, 0) })
		k.Run()
		if len(w.got) != 2 {
			return false
		}
		overlap := g < air
		if overlap {
			return w.got[0] == Collided && w.got[1] == Collided
		}
		return w.got[0] == Clean && w.got[1] == Clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlackoutSuppressesDelivery(t *testing.T) {
	k, c, a, b, bs := setup()
	c.SetBlackout("a", "bs", true)
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	if len(bs.got) != 0 {
		t.Fatalf("bs received %v through a blackout", bs.got)
	}
	// The blackout is directional: the other listener still hears it.
	if len(b.got) != 1 || b.got[0] != Clean {
		t.Fatalf("b got %v, want one clean copy", b.got)
	}
	if st := c.Stats(); st.BlackoutDrops != 1 {
		t.Fatalf("BlackoutDrops = %d, want 1", st.BlackoutDrops)
	}
}

func TestBlackoutDepthComposes(t *testing.T) {
	k, c, a, _, bs := setup()
	// Two overlapping windows: the path stays dark until both close.
	c.SetBlackout("a", "bs", true)
	c.SetBlackout("a", "bs", true)
	c.SetBlackout("a", "bs", false)
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	if len(bs.got) != 0 {
		t.Fatalf("path delivered with one of two windows still open")
	}
	c.SetBlackout("a", "bs", false)
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	if len(bs.got) != 1 || bs.got[0] != Clean {
		t.Fatalf("bs got %v after both windows closed, want one clean copy", bs.got)
	}
	// Closing more windows than were opened must not wedge the path.
	c.SetBlackout("a", "bs", false)
	c.SetBlackout("a", "bs", true)
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	if len(bs.got) != 1 {
		t.Fatalf("over-closing cancelled a later window")
	}
}

func TestJammingCorruptsNewAndInFlightFrames(t *testing.T) {
	k, c, a, b, bs := setup()
	// Frame in flight when the burst starts.
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Schedule(50*sim.Microsecond, func(*sim.Kernel) { c.SetJamming(true) })
	// Frame born inside the burst.
	k.Schedule(120*sim.Microsecond, func(*sim.Kernel) { c.BeginTx(b.port, img(), 100*sim.Microsecond, 0) })
	k.Schedule(300*sim.Microsecond, func(*sim.Kernel) { c.SetJamming(false) })
	// Frame after the burst ends: clean again.
	k.Schedule(400*sim.Microsecond, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Run()
	want := []Corruption{Jammed, Jammed, Clean}
	if len(bs.got) != 3 {
		t.Fatalf("bs got %d copies, want 3", len(bs.got))
	}
	for i, cause := range want {
		if bs.got[i] != cause {
			t.Fatalf("copy %d delivered as %v, want %v", i, bs.got[i], cause)
		}
	}
	// Jammed copies must fail the receiver-side CRC.
	if _, ok, _ := packet.DecodeInPlace(bs.images[0]); ok {
		t.Fatalf("jammed copy passed CRC")
	}
	if st := c.Stats(); st.JammedFrames != 2 {
		t.Fatalf("JammedFrames = %d, want 2", st.JammedFrames)
	}
}

func TestAbortTxTruncatesInFlight(t *testing.T) {
	k, c, a, b, bs := setup()
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	// The transmitter dies mid-burst; listeners were committed to the
	// airtime, so a corrupted copy still arrives on schedule.
	k.Schedule(40*sim.Microsecond, func(*sim.Kernel) { c.AbortTx(a.port) })
	k.Run()
	for _, r := range []*fakeRadio{b, bs} {
		if len(r.got) != 1 || r.got[0] != Truncated {
			t.Fatalf("radio %s got %v, want one truncated copy", r.id, r.got)
		}
	}
	if _, ok, _ := packet.DecodeInPlace(bs.images[0]); ok {
		t.Fatalf("truncated copy passed CRC")
	}
	if st := c.Stats(); st.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", st.Truncated)
	}
}

func TestAbortTxLeavesOtherSendersAlone(t *testing.T) {
	k, c, a, b, bs := setup()
	// Non-overlapping frames from two senders; aborting a's must not
	// touch b's.
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(a.port, img(), 100*sim.Microsecond, 0) })
	k.Schedule(10*sim.Microsecond, func(*sim.Kernel) { c.AbortTx(a.port) })
	k.Schedule(200*sim.Microsecond, func(*sim.Kernel) { c.BeginTx(b.port, img(), 100*sim.Microsecond, 0) })
	k.Schedule(210*sim.Microsecond, func(*sim.Kernel) { c.AbortTx(a.port) }) // nothing of a's in flight
	k.Run()
	if len(bs.got) != 2 || bs.got[0] != Truncated || bs.got[1] != Clean {
		t.Fatalf("bs got %v, want [truncated clean]", bs.got)
	}
}

// logRadio is a listening Transceiver that logs its deliveries and burst
// ends with the dispatch (the kernel's executed count) each ran in.
type logRadio struct {
	id   string
	port int
	k    *sim.Kernel
	log  *[]string
}

func (r *logRadio) ChannelID() string                { return r.id }
func (r *logRadio) ListeningSince() (sim.Time, bool) { return 0, true }
func (r *logRadio) Deliver(_ []byte, cause Corruption) {
	*r.log = append(*r.log, fmt.Sprintf("%d deliver %s %v", r.k.Executed(), r.id, cause))
}
func (r *logRadio) EndBurst(word uint64) {
	*r.log = append(*r.log, fmt.Sprintf("%d end %s %d", r.k.Executed(), r.id, word))
}

// TestEndBurstFollowsDeliveries checks that a frame's end hands the
// sender its word after the frame's last delivery, in the same dispatch,
// for a clean frame over a blacked-out path and for a truncated one.
func TestEndBurstFollowsDeliveries(t *testing.T) {
	k := sim.NewKernel(5)
	c := New(k)
	var log []string
	radios := map[string]*logRadio{}
	for _, id := range []string{"a", "b", "c"} {
		radios[id] = &logRadio{id: id, k: k, log: &log}
		radios[id].port = c.Attach(radios[id])
	}
	c.SetBlackout("a", "c", true)
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(radios["a"].port, img(), 100*sim.Microsecond, 7) })
	k.Schedule(200*sim.Microsecond, func(*sim.Kernel) { c.BeginTx(radios["b"].port, img(), 100*sim.Microsecond, 9) })
	k.Schedule(250*sim.Microsecond, func(*sim.Kernel) { c.AbortTx(radios["b"].port) })
	k.Run()
	want := []string{
		"2 deliver b clean", "2 end a 7",
		"5 deliver a truncated", "5 deliver c truncated", "5 end b 9",
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Fatalf("log:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
	if st := c.Stats(); st.BlackoutDrops != 1 || st.Truncated != 1 {
		t.Fatalf("stats %+v, want 1 blackout drop and 1 truncated frame", st)
	}
}
