package app

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
)

// The ISR that completes a payload chains the payload's assembly task
// to its completion (tinyos.Sched.Chain), so the hand-off costs no
// kernel event. These tests pin the buffer accounting across it.

// TestCrashBeforeHandOffKeepsAccounting crashes while the payload's last
// ISR still runs: the ISR and its chained assembly are both dropped, no
// task stays queued, and the buffer's numbering stays intact, so the
// next payload completes the five pairs that survived, and the one
// after it carries the acquisitions that follow.
func TestCrashBeforeHandOffKeepsAccounting(t *testing.T) {
	kernels(t, func(t *testing.T, k *sim.Kernel) {
		r := newISRRig(t, k)
		sched := r.h.env.Sched
		p := sched.MCU().Params()
		lastISR := r.isrEnd() + 5*p.CyclesToTime(r.h.env.Cost.SamplePairStreaming)
		k.Schedule(0, func(*sim.Kernel) {
			for i := range 6 {
				r.acquire(codec.Sample(100 + 2*i))
			}
			if sched.QueueLen() != 1 {
				t.Errorf("queue holds %d tasks after the chain, want the assembly", sched.QueueLen())
			}
		})
		k.ScheduleAt(lastISR-1, func(*sim.Kernel) {
			r.crash()
			if sched.QueueLen() != 0 {
				t.Errorf("after the crash: %d tasks queued, want none", sched.QueueLen())
			}
			for i := range 12 {
				r.acquire(codec.Sample(200 + 2*i))
			}
		})
		k.Run()
		if n := len(r.h.mac.payloads); n != 2 {
			t.Fatalf("%d payloads sent, want 2", n)
		}
		for i, first := range []codec.Sample{100, 202} {
			got, err := codec.Unpack(r.h.mac.payloads[i], 12)
			if err != nil {
				t.Fatal(err)
			}
			// The first payload keeps the five pairs completed before
			// the crash.
			starts := []codec.Sample{100, 102, 104, 106, 108, 200}
			if i == 1 {
				starts = []codec.Sample{first, first + 2, first + 4, first + 6, first + 8, first + 10}
			}
			wantPairs(t, got, starts...)
		}
	})
}

// TestDroppedPayloadKeepsNumbering drops one payload's assembly to a
// full queue at its hand-off, then sends two more: each assembly skips
// the dropped payload's samples and packs its own.
func TestDroppedPayloadKeepsNumbering(t *testing.T) {
	kernels(t, func(t *testing.T, k *sim.Kernel) {
		r := newISRRig(t, k)
		k.Schedule(0, func(*sim.Kernel) {
			for i := range 6 {
				r.acquire(codec.Sample(100 + 2*i))
			}
			for r.h.env.Sched.PostFn("filler", 1, nil) {
			}
		})
		k.Schedule(50*sim.Millisecond, func(*sim.Kernel) {
			for i := range 12 {
				r.acquire(codec.Sample(200 + 2*i))
			}
		})
		k.Run()
		if n := len(r.h.mac.payloads); n != 2 {
			t.Fatalf("%d payloads sent, want 2", n)
		}
		for i, first := range []codec.Sample{200, 212} {
			got, err := codec.Unpack(r.h.mac.payloads[i], 12)
			if err != nil {
				t.Fatal(err)
			}
			wantPairs(t, got, first, first+2, first+4, first+6, first+8, first+10)
		}
	})
}
