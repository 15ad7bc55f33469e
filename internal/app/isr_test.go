package app

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
)

// The streaming ISRs that complete no payload run without a completion
// event, so a crash learns which of them completed from their reserved
// dispatch positions alone. These tests pin that rule on both
// schedulers: an ISR whose position dispatch had passed at the crash
// keeps its samples, and one still running loses them.

// isrRig is a streaming application over the harness, fed pairs (v, v+1)
// by hand.
type isrRig struct {
	h *harness
	s *Streaming
}

func newISRRig(t *testing.T, k *sim.Kernel) *isrRig {
	h := newHarnessOn(t, k)
	return &isrRig{h: h, s: NewStreaming(h.env, StreamingConfig{SampleRateHz: 205, Channels: 2, Signal: signal()})}
}

func (r *isrRig) acquire(v codec.Sample) { r.s.onAcquisition(0, []codec.Sample{v, v + 1}) }

// crash powers the node off and straight back on, as the fault injector
// does to the MCU and its scheduler.
func (r *isrRig) crash() {
	m := r.h.env.Sched.MCU()
	m.Crash()
	r.h.env.Sched.Crash()
	m.Reboot()
}

// isrEnd is when the first ISR submitted to a sleeping MCU completes.
func (r *isrRig) isrEnd() sim.Time {
	p := r.h.env.Sched.MCU().Params()
	return p.WakeupLatency + p.CyclesToTime(r.h.env.Cost.SamplePairStreaming)
}

// payload runs the kernel dry and returns the only payload sent.
func (r *isrRig) payload(t *testing.T) []codec.Sample {
	t.Helper()
	r.h.k.Run()
	if n := len(r.h.mac.payloads); n != 1 {
		t.Fatalf("%d payloads sent, want 1", n)
	}
	got, err := codec.Unpack(r.h.mac.payloads[0], 12)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// wantPairs checks that got holds the pairs starting at each of starts, in
// order.
func wantPairs(t *testing.T, got []codec.Sample, starts ...codec.Sample) {
	t.Helper()
	if len(got) != 2*len(starts) {
		t.Fatalf("payload %v, want the pairs at %v", got, starts)
	}
	for i, v := range starts {
		if got[2*i] != v || got[2*i+1] != v+1 {
			t.Fatalf("payload %v, want the pairs at %v", got, starts)
		}
	}
}

// kernels runs a subtest on each scheduler.
func kernels(t *testing.T, run func(t *testing.T, k *sim.Kernel)) {
	t.Run("wheel", func(t *testing.T) { run(t, sim.NewKernel(1)) })
	t.Run("heap", func(t *testing.T) { run(t, sim.NewHeapKernel(1)) })
}

// TestCrashKeepsCompletedISRs: two ISRs complete, then a crash comes
// before the payload's last ISR. The next payload starts with their
// samples.
func TestCrashKeepsCompletedISRs(t *testing.T) {
	kernels(t, func(t *testing.T, k *sim.Kernel) {
		r := newISRRig(t, k)
		k.Schedule(0, func(*sim.Kernel) {
			r.acquire(100)
			r.acquire(102)
		})
		k.Schedule(10*sim.Millisecond, func(*sim.Kernel) {
			r.crash()
			for i := range 4 {
				r.acquire(codec.Sample(200 + 2*i))
			}
		})
		wantPairs(t, r.payload(t), 100, 102, 200, 202, 204, 206)
	})
}

// TestCrashDropsRunningISR: a third ISR is still running at the crash.
// Its samples are dropped; the two completed ones stay.
func TestCrashDropsRunningISR(t *testing.T) {
	kernels(t, func(t *testing.T, k *sim.Kernel) {
		r := newISRRig(t, k)
		k.Schedule(0, func(*sim.Kernel) {
			r.acquire(100)
			r.acquire(102)
		})
		k.Schedule(10*sim.Millisecond, func(*sim.Kernel) {
			r.acquire(104)
			r.crash()
			for i := range 4 {
				r.acquire(codec.Sample(200 + 2*i))
			}
		})
		wantPairs(t, r.payload(t), 100, 102, 200, 202, 204, 206)
	})
}

// TestCrashDropsRunningPayloadISR: the ISR that completes a payload is
// still running at the crash. No payload goes out, and its samples,
// already buffered, are dropped while its five predecessors' stay.
func TestCrashDropsRunningPayloadISR(t *testing.T) {
	kernels(t, func(t *testing.T, k *sim.Kernel) {
		r := newISRRig(t, k)
		k.Schedule(0, func(*sim.Kernel) {
			for i := range 5 {
				r.acquire(codec.Sample(100 + 2*i))
			}
		})
		k.Schedule(10*sim.Millisecond, func(*sim.Kernel) {
			r.acquire(110)
			r.crash()
			r.acquire(200)
		})
		wantPairs(t, r.payload(t), 100, 102, 104, 106, 108, 200)
	})
}

// TestCrashAtISRCompletionInstant crashes at the very instant an elided
// ISR completes. A crash event filed before the ISR was submitted holds
// an earlier dispatch position than the ISR's reserved one, so the ISR
// is still running and loses its samples; one filed after it finds the
// ISR complete.
func TestCrashAtISRCompletionInstant(t *testing.T) {
	for _, tc := range []struct {
		name        string
		crashFirst  bool
		wantStarts  []codec.Sample
		acquireMore int
	}{
		{"crash filed before the ISR", true, []codec.Sample{200, 202, 204, 206, 208, 210}, 6},
		{"crash filed after the ISR", false, []codec.Sample{100, 200, 202, 204, 206, 208}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kernels(t, func(t *testing.T, k *sim.Kernel) {
				r := newISRRig(t, k)
				m := r.h.env.Sched.MCU()
				end := r.isrEnd()
				crash := func(k *sim.Kernel) {
					if k.Now() != end || m.Busy() {
						t.Fatalf("crash at %v with the MCU busy=%v, want the ISR's end %v", k.Now(), m.Busy(), end)
					}
					r.crash()
					for i := range tc.acquireMore {
						r.acquire(codec.Sample(200 + 2*i))
					}
				}
				if tc.crashFirst {
					k.ScheduleAt(end, crash)
				}
				k.Schedule(0, func(k *sim.Kernel) {
					r.acquire(100)
					if !tc.crashFirst {
						k.ScheduleAt(end, crash)
					}
				})
				wantPairs(t, r.payload(t), tc.wantStarts...)
			})
		})
	}
}
