package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/metrics"
)

// TestTimeline checks the protocol traces cmd/timeline prints, on the
// scenario it prints them from: Figure 2's static joins, Figure 3's
// growing dynamic cycle, the -crash recovery and the -degrade cascade.
// Every event of the default horizon stays in the ring, so the checks
// read the retained events.
func TestTimeline(t *testing.T) {
	cases := []struct {
		name  string
		tl    Timeline
		check func(t *testing.T, tr *metrics.Recorder)
	}{
		{"figure2-static", Timeline{Protocol: mac.ProtoStatic}, func(t *testing.T, tr *metrics.Recorder) {
			if ssr, joined := len(tr.Filter(metrics.KindSSRTx)), len(tr.Filter(metrics.KindJoined)); ssr < 2 || joined != 2 {
				t.Fatalf("static join sequence incomplete: ssr=%d joined=%d", ssr, joined)
			}
		}},
		{"figure3-dynamic", Timeline{Protocol: mac.ProtoDynamic}, func(t *testing.T, tr *metrics.Recorder) {
			if n := len(tr.Filter(metrics.KindCycleGrow)); n != 2 {
				t.Fatalf("dynamic cycle growth events = %d, want 2", n)
			}
		}},
		{"crash-dynamic", Timeline{Protocol: mac.ProtoDynamic, Crash: true}, func(t *testing.T, tr *metrics.Recorder) {
			// node1 crashes, the base station reclaims its slot, and
			// node1 rejoins after its reboot, in that order.
			want := []struct {
				node string
				kind metrics.Kind
			}{{"node1", metrics.KindCrash}, {"bs", metrics.KindSlotReclaim},
				{"node1", metrics.KindReboot}, {"node1", metrics.KindJoined}}
			for _, e := range tr.Events() {
				if len(want) > 0 && e.Node == want[0].node && e.Kind == want[0].kind {
					want = want[1:]
				}
			}
			if len(want) > 0 {
				t.Fatalf("crash -> reclaim -> reboot -> rejoin stops before %s %s", want[0].node, want[0].kind)
			}
		}},
		{"degrade-dynamic", Timeline{Protocol: mac.ProtoDynamic, Degrade: true}, degradedToBrownout},
		{"degrade-static", Timeline{Protocol: mac.ProtoStatic, Degrade: true}, degradedToBrownout},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.tl.Seed = 1
			res, err := core.Run(c.tl.Config())
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace.Dropped() > 0 {
				t.Fatalf("the ring dropped %d events", res.Trace.Dropped())
			}
			c.check(t, res.Trace)
		})
	}
}

// degradedToBrownout: the cascade reaches parking and a brownout inside
// the default horizon.
func degradedToBrownout(t *testing.T, tr *metrics.Recorder) {
	if parked, dead := len(tr.Filter(metrics.KindParked)), len(tr.Filter(metrics.KindBrownout)); parked == 0 || dead == 0 {
		t.Fatalf("degradation cascade incomplete: parked=%d brownouts=%d", parked, dead)
	}
}
