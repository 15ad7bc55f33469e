package mac

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/radio"
	"repro/internal/sim"
)

// TestLPLParkMidStrobeClockIn parks an LPL node while its first strobe
// is still clocking into the radio FIFO. The strobe must never fly: the
// radio stays in standby until the clock-in ends, then powers down,
// with no burst and no TX time.
func TestLPLParkMidStrobeClockIn(t *testing.T) {
	r := newProtoRig(t, ProtoLPL, Params{}, 0, 3)
	n := r.addNode(1, ProtoLPL, Params{})
	rad, m := r.radios[0], r.mcus[0]
	r.k.Schedule(0, func(*sim.Kernel) {
		r.bs.Start()
		n.Start()
	})
	// Step until the first strobe's clock-in puts the radio in standby.
	for rad.Mode() != radio.ModeStandby {
		if r.k.Now() > 2*DefaultLPLCheckInterval {
			t.Fatal("no strobe train started")
		}
		r.k.RunUntil(r.k.Now() + 10*sim.Microsecond)
	}
	started := r.k.Now() // the clock-in started in the last step
	end := m.Completion().At
	if end <= r.k.Now()+1 {
		t.Fatalf("clock-in ends at %v, too close to %v to park inside it", end, r.k.Now())
	}
	r.k.ScheduleAt(r.k.Now()+1, func(*sim.Kernel) { n.EnterBeaconOnly() })
	r.k.RunUntil(end - 1)
	if got := rad.Mode(); got != radio.ModeStandby {
		t.Fatalf("mode %v just before the clock-in ends, want standby", got)
	}
	r.k.RunUntil(end + 50*sim.Millisecond)
	if got := rad.Mode(); got != radio.ModeOff {
		t.Fatalf("mode %v after the clock-in ended, want off", got)
	}
	if tx := r.ch.Stats().Transmissions; tx != 0 || rad.Stats().TxFrames != 0 || n.Stats().StrobesSent != 0 {
		t.Fatalf("%d transmissions, %d frames sent, %d strobes; want none", tx, rad.Stats().TxFrames, n.Stats().StrobesSent)
	}
	r.ledgers[0].Flush(r.k.Now())
	c, _ := r.ledgers[0].Report().Component(platform.ComponentRadio)
	if tx := c.States.Get(platform.StateRadioTX).Time; tx != 0 {
		t.Fatalf("radio spent %v in TX, want none", tx)
	}
	// Standby covers exactly the clock-in: from its start, inside the
	// last step, to its end.
	sb := c.States.Get(platform.StateRadioStandby).Time
	if start := end - sb; start <= started-10*sim.Microsecond || start > started {
		t.Fatalf("radio in standby for %v, so from %v; want from inside (%v, %v] to the clock-in's end %v",
			sb, start, started-10*sim.Microsecond, started, end)
	}
	if off := c.States.Get(platform.StateRadioOff).Time; off != r.k.Now()-sb {
		t.Fatalf("radio off for %v, want every instant outside the clock-in", off)
	}
}

// TestLPLPayloadDelayOwedToClockInEnd pins where an LPL payload's
// queueing delay is recorded. The payload bursts as its FIFO clock-in
// ends, with no kernel event there, so the delay is owed from the
// Burst load and counts in the accounting epoch of the clock-in's end: a
// reset before that end keeps it, one after it drops it with the rest
// of the old epoch, and a crash before that end calls the burst off and
// records nothing.
func TestLPLPayloadDelayOwedToClockInEnd(t *testing.T) {
	for _, c := range []struct {
		name      string
		act       func(n *LPLNode)
		at        func(end sim.Time) sim.Time
		wantCount uint64
	}{
		{"reset before the end", func(n *LPLNode) { n.ResetAccounting() }, func(end sim.Time) sim.Time { return end - 1 }, 1},
		{"reset after the end", func(n *LPLNode) { n.ResetAccounting() }, func(end sim.Time) sim.Time { return end + 1 }, 0},
		{"crash before the end", func(n *LPLNode) { n.ResetAccounting(); n.Crash() }, func(end sim.Time) sim.Time { return end - 1 }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newProtoRig(t, ProtoLPL, Params{}, 0, 3)
			n := r.addNode(1, ProtoLPL, Params{}).(*LPLNode)
			r.k.Schedule(0, func(*sim.Kernel) {
				r.bs.Start()
				n.Start()
			})
			n.OnJoined(func() { n.Send(make([]byte, 18)) })
			for !n.owed.due {
				if r.k.Now() > 10*DefaultLPLCheckInterval {
					t.Fatal("no payload clocked in")
				}
				r.k.RunUntil(r.k.Now() + 10*sim.Microsecond)
			}
			end, lat := n.owed.at.At, n.owed.lat
			if end <= r.k.Now()+1 {
				t.Fatalf("clock-in ends at %v, too close to %v", end, r.k.Now())
			}
			r.k.ScheduleAt(c.at(end), func(*sim.Kernel) { c.act(n) })
			r.k.RunUntil(end + 50*sim.Millisecond)
			s := n.Stats()
			if s.LatencyCount != c.wantCount || s.LatencySum != sim.Time(c.wantCount)*lat {
				t.Fatalf("%d delays summing to %v recorded, want %d of %v", s.LatencyCount, s.LatencySum, c.wantCount, lat)
			}
		})
	}
}
