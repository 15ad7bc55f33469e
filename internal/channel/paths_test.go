package channel

import (
	"testing"

	"repro/internal/sim"
)

// attachAll attaches a listening fake radio per name, in order.
func attachAll(c *Channel, names ...string) map[string]*fakeRadio {
	out := make(map[string]*fakeRadio, len(names))
	for _, n := range names {
		r := &fakeRadio{id: n, listening: true}
		c.Attach(r)
		out[n] = r
	}
	return out
}

// sendFrom puts one frame on the air from r and runs it to delivery.
func sendFrom(k *sim.Kernel, c *Channel, r *fakeRadio) {
	k.Schedule(0, func(*sim.Kernel) { c.BeginTx(r, img(), 100*sim.Microsecond) })
	k.Run()
}

// TestTwoNetworksOnOneChannel attaches two BANs, with the same MAC IDs
// in each, to one medium: the path table is indexed per radio, so links
// and blackouts between the networks apply to exactly the paths named.
func TestTwoNetworksOnOneChannel(t *testing.T) {
	k := sim.NewKernel(3)
	c := New(k)
	r := attachAll(c, "n0.bs", "n0.1", "n1.bs", "n1.1")
	c.SetLink("n0.1", "n1.bs", Link{Connected: false})
	c.SetBlackout("n1.1", "n0.bs", true)

	sendFrom(k, c, r["n0.1"])
	if got := []int{len(r["n0.bs"].got), len(r["n1.bs"].got), len(r["n1.1"].got)}; got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("n0.1's frame reached n0.bs/n1.bs/n1.1 %v times, want 1/0/1", got)
	}
	sendFrom(k, c, r["n1.1"])
	if len(r["n0.bs"].got) != 1 || len(r["n1.bs"].got) != 1 || len(r["n0.1"].got) != 1 {
		t.Fatalf("n1.1's frame: n0.bs %d, n1.bs %d, n0.1 %d copies; want the blackout to stop only n0.bs",
			len(r["n0.bs"].got), len(r["n1.bs"].got), len(r["n0.1"].got))
	}
	if st := c.Stats(); st.BlackoutDrops != 1 {
		t.Fatalf("BlackoutDrops = %d, want 1", st.BlackoutDrops)
	}
	c.SetBlackout("n1.1", "n0.bs", false)
	sendFrom(k, c, r["n1.1"])
	if len(r["n0.bs"].got) != 2 {
		t.Fatal("closed blackout still suppresses n1.1 -> n0.bs")
	}
}

// TestPathsSetBeforeAttach checks that a link and a blackout set on
// names not attached yet apply once the radios attach, including after
// the table has had to grow.
func TestPathsSetBeforeAttach(t *testing.T) {
	k := sim.NewKernel(3)
	c := New(k)
	r := attachAll(c, "a")
	c.SetLink("a", "late", Link{Connected: false})
	c.SetBlackout("a", "later", true)
	r2 := attachAll(c, "late", "later", "other")

	sendFrom(k, c, r["a"])
	if len(r2["late"].got) != 0 || len(r2["later"].got) != 0 || len(r2["other"].got) != 1 {
		t.Fatalf("late/later/other got %d/%d/%d copies, want 0/0/1",
			len(r2["late"].got), len(r2["later"].got), len(r2["other"].got))
	}
}

// TestBlackoutOnUnattachedNames keeps the name-keyed semantics: windows
// on paths no radio uses are counted, compose and close, and touch no
// attached path.
func TestBlackoutOnUnattachedNames(t *testing.T) {
	k := sim.NewKernel(3)
	c := New(k)
	c.SetBlackout("node1", "bs", true)
	c.SetBlackout("node1", "bs", false)
	c.SetBlackout("node1", "bs", false) // over-closing is a no-op
	c.SetBlackout("ghost", "bs", true)
	r := attachAll(c, "x", "bs")
	sendFrom(k, c, r["x"])
	if len(r["bs"].got) != 1 || c.Stats().BlackoutDrops != 0 {
		t.Fatalf("bs got %d copies, %d blackout drops; want 1 and 0", len(r["bs"].got), c.Stats().BlackoutDrops)
	}
	r2 := attachAll(c, "node1")
	sendFrom(k, c, r2["node1"])
	if len(r["bs"].got) != 2 {
		t.Fatal("a closed window on a then-unattached path suppressed delivery")
	}
}

// countRadio is a listening Transceiver that only counts deliveries, so
// it adds no allocation of its own.
type countRadio struct {
	id      string
	clean   int
	corrupt int
}

func (r *countRadio) ChannelID() string                { return r.id }
func (r *countRadio) ListeningSince() (sim.Time, bool) { return 0, true }
func (r *countRadio) Deliver(_ []byte, cause Corruption) {
	if cause == Clean {
		r.clean++
	} else {
		r.corrupt++
	}
}

// TestFinishTxAllocationFree pins steady-state delivery over
// error-prone, bursty and blacked-out paths to zero allocations.
func TestFinishTxAllocationFree(t *testing.T) {
	k := sim.NewKernel(5)
	c := New(k)
	names := []string{"a", "b", "c", "bs"}
	radios := make([]*countRadio, len(names))
	for i, n := range names {
		radios[i] = &countRadio{id: n}
		c.Attach(radios[i])
	}
	for _, from := range names {
		for _, to := range names {
			c.SetLink(from, to, Link{Connected: true, BER: 2e-3})
		}
	}
	c.SetLink("a", "bs", Link{Connected: true, Burst: &BurstModel{PGoodToBad: 0.2, PBadToGood: 0.3, BERBad: 0.01}})
	c.SetBlackout("a", "c", true)
	frame := img()
	send := func() {
		c.BeginTx(radios[0], frame, 100*sim.Microsecond)
		k.Run()
	}
	for i := 0; i < 20; i++ { // grow the pools
		send()
	}
	if got := testing.AllocsPerRun(500, send); got != 0 {
		t.Fatalf("frame delivery allocates %.2f times per frame", got)
	}
	if b, bs := radios[1], radios[3]; b.corrupt == 0 || bs.corrupt == 0 || bs.clean == 0 || radios[2].clean+radios[2].corrupt != 0 {
		t.Fatalf("paths not exercised: b %+v, bs %+v, c %+v", *b, *bs, *radios[2])
	}
}
