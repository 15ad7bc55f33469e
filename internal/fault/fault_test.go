package fault

import (
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestValidateSchedule(t *testing.T) {
	total := 10 * sim.Second
	cases := []struct {
		name    string
		faults  []Fault
		wantErr string // "" = valid
	}{
		{"empty", nil, ""},
		{"crash ok", []Fault{
			{Kind: KindCrash, Node: 1, At: 2 * sim.Second, RebootAfter: sim.Second},
		}, ""},
		{"crash no reboot", []Fault{
			{Kind: KindCrash, Node: 3, At: 9 * sim.Second},
		}, ""},
		{"crash unknown node", []Fault{
			{Kind: KindCrash, Node: 4, At: sim.Second},
		}, "not in scenario"},
		{"crash node zero", []Fault{
			{Kind: KindCrash, Node: 0, At: sim.Second},
		}, "not in scenario"},
		{"crash past end", []Fault{
			{Kind: KindCrash, Node: 1, At: 10 * sim.Second},
		}, "outside the simulated span"},
		{"negative at", []Fault{
			{Kind: KindCrash, Node: 1, At: -sim.Second},
		}, "outside the simulated span"},
		{"reboot past end", []Fault{
			{Kind: KindCrash, Node: 1, At: 9 * sim.Second, RebootAfter: 2 * sim.Second},
		}, "past the simulated span"},
		{"negative reboot", []Fault{
			{Kind: KindCrash, Node: 1, At: sim.Second, RebootAfter: -sim.Second},
		}, "negative reboot_after"},
		{"overlapping crashes", []Fault{
			{Kind: KindCrash, Node: 1, At: 2 * sim.Second, RebootAfter: 3 * sim.Second},
			{Kind: KindCrash, Node: 1, At: 4 * sim.Second, RebootAfter: sim.Second},
		}, "overlaps"},
		{"crash after open-ended crash", []Fault{
			{Kind: KindCrash, Node: 1, At: 2 * sim.Second},
			{Kind: KindCrash, Node: 1, At: 8 * sim.Second},
		}, "overlaps"},
		{"sequential crashes ok", []Fault{
			{Kind: KindCrash, Node: 1, At: 2 * sim.Second, RebootAfter: sim.Second},
			{Kind: KindCrash, Node: 1, At: 5 * sim.Second, RebootAfter: sim.Second},
		}, ""},
		{"same-instant crashes on two nodes ok", []Fault{
			{Kind: KindCrash, Node: 1, At: 2 * sim.Second, RebootAfter: sim.Second},
			{Kind: KindCrash, Node: 2, At: 2 * sim.Second, RebootAfter: sim.Second},
		}, ""},
		{"blackout ok", []Fault{
			{Kind: KindBlackout, From: "node1", To: "bs", At: sim.Second, Until: 2 * sim.Second},
		}, ""},
		{"blackout unknown endpoint", []Fault{
			{Kind: KindBlackout, From: "node9", To: "bs", At: sim.Second, Until: 2 * sim.Second},
		}, "unknown endpoint"},
		{"blackout junk endpoint", []Fault{
			{Kind: KindBlackout, From: "gateway", To: "bs", At: sim.Second, Until: 2 * sim.Second},
		}, "unknown endpoint"},
		{"blackout self path", []Fault{
			{Kind: KindBlackout, From: "node1", To: "node1", At: sim.Second, Until: 2 * sim.Second},
		}, "identical"},
		{"blackout inverted window", []Fault{
			{Kind: KindBlackout, From: "node1", To: "bs", At: 2 * sim.Second, Until: sim.Second},
		}, "not after start"},
		{"blackout past end", []Fault{
			{Kind: KindBlackout, From: "node1", To: "bs", At: 9 * sim.Second, Until: 11 * sim.Second},
		}, "past the simulated span"},
		{"interference ok", []Fault{
			{Kind: KindInterference, At: sim.Second, Until: 2 * sim.Second},
		}, ""},
		{"interference empty window", []Fault{
			{Kind: KindInterference, At: sim.Second, Until: sim.Second},
		}, "not after start"},
		{"unknown kind", []Fault{
			{Kind: "meteor", At: sim.Second},
		}, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateSchedule(tc.faults, 3, total)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted invalid schedule")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// stubNode is a minimal NodeHooks implementation that records lifecycle
// calls and lets the test fire joins by hand.
type stubNode struct {
	crashes int
	reboots int
	joined  []func()
	stats   mac.Stats
}

func (s *stubNode) hooks() NodeHooks {
	return NodeHooks{
		Crash:    func() { s.crashes++ },
		Reboot:   func() { s.reboots++ },
		OnJoined: func(fn func()) { s.joined = append(s.joined, fn) },
		Stats:    func() mac.Stats { return s.stats },
	}
}

func (s *stubNode) fireJoin() {
	for _, fn := range s.joined {
		fn()
	}
}

func TestInjectorCrashOutcome(t *testing.T) {
	k := sim.NewKernel(1)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	inj := New(k, ch, tracer)
	n := &stubNode{}
	inj.AddNode(1, n.hooks())

	n.stats = mac.Stats{DataSent: 10, DataAcked: 10}
	inj.Install([]Fault{
		{Kind: KindCrash, Node: 1, At: 2 * sim.Second, RebootAfter: sim.Second},
	})
	// The node "sends" two unacked frames between crash and rejoin.
	k.ScheduleAt(3500*sim.Millisecond, func(*sim.Kernel) {
		n.stats.DataSent = 12
		n.fireJoin()
	})
	k.RunUntil(5 * sim.Second)

	if n.crashes != 1 || n.reboots != 1 {
		t.Fatalf("crashes=%d reboots=%d, want 1/1", n.crashes, n.reboots)
	}
	out := inj.Finalize()
	if len(out) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(out))
	}
	o := out[0]
	if !o.Rejoined {
		t.Fatalf("outcome not marked rejoined: %+v", o)
	}
	if o.RebootedAt != 3*sim.Second {
		t.Fatalf("RebootedAt = %v, want 3s", o.RebootedAt)
	}
	if o.RejoinedAt != 3500*sim.Millisecond || o.TimeToRejoin != 500*sim.Millisecond {
		t.Fatalf("RejoinedAt=%v TimeToRejoin=%v, want 3.5s/500ms", o.RejoinedAt, o.TimeToRejoin)
	}
	if o.SentDuring != 2 || o.AckedDuring != 0 {
		t.Fatalf("SentDuring=%d AckedDuring=%d, want 2/0", o.SentDuring, o.AckedDuring)
	}
}

func TestInjectorCrashWithoutRejoin(t *testing.T) {
	k := sim.NewKernel(1)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	inj := New(k, ch, tracer)
	n := &stubNode{}
	inj.AddNode(2, n.hooks())

	inj.Install([]Fault{{Kind: KindCrash, Node: 2, At: sim.Second}})
	k.RunUntil(4 * sim.Second)

	if n.crashes != 1 || n.reboots != 0 {
		t.Fatalf("crashes=%d reboots=%d, want 1/0", n.crashes, n.reboots)
	}
	o := inj.Finalize()[0]
	if o.Rejoined || o.RebootedAt != 0 {
		t.Fatalf("no-reboot crash reported recovery: %+v", o)
	}
}

// TestInjectorIgnoresOrdinaryJoins checks that a join with no pending
// reboot (the initial join, or a resync after missed beacons) does not
// get misattributed to a fault.
func TestInjectorIgnoresOrdinaryJoins(t *testing.T) {
	k := sim.NewKernel(1)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	inj := New(k, ch, tracer)
	n := &stubNode{}
	inj.AddNode(1, n.hooks())
	inj.Install([]Fault{
		{Kind: KindCrash, Node: 1, At: 2 * sim.Second, RebootAfter: sim.Second},
	})
	// Initial join, long before the crash.
	k.ScheduleAt(100*sim.Millisecond, func(*sim.Kernel) { n.fireJoin() })
	k.RunUntil(2500 * sim.Millisecond) // crash happened, reboot not yet
	o := inj.Outcomes()[0]
	if o.Rejoined {
		t.Fatalf("pre-crash join was counted as crash recovery")
	}
}

func TestInjectorBlackoutTogglesChannel(t *testing.T) {
	k := sim.NewKernel(1)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	inj := New(k, ch, tracer)
	n := &stubNode{}
	inj.AddNode(1, n.hooks())

	n.stats = mac.Stats{DataSent: 5, DataAcked: 5}
	inj.Install([]Fault{
		{Kind: KindBlackout, From: "node1", To: "bs", At: sim.Second, Until: 2 * sim.Second},
	})
	// Frames sent inside the window go unacked.
	k.ScheduleAt(1500*sim.Millisecond, func(*sim.Kernel) {
		n.stats.DataSent = 8
	})
	k.RunUntil(3 * sim.Second)
	o := inj.Finalize()[0]
	if o.SentDuring != 3 || o.AckedDuring != 0 {
		t.Fatalf("SentDuring=%d AckedDuring=%d, want 3/0", o.SentDuring, o.AckedDuring)
	}
	if o.DeliveryDuring() != 0 {
		t.Fatalf("DeliveryDuring = %v, want 0", o.DeliveryDuring())
	}
}

func TestInjectorTraceEvents(t *testing.T) {
	k := sim.NewKernel(1)
	ch := channel.New(k)
	tracer := metrics.NewRecorder(0)
	inj := New(k, ch, tracer)
	n := &stubNode{}
	inj.AddNode(1, n.hooks())
	inj.Install([]Fault{
		{Kind: KindBlackout, From: "node1", To: "bs", At: sim.Second, Until: 2 * sim.Second},
		{Kind: KindInterference, At: 3 * sim.Second, Until: 4 * sim.Second},
	})
	k.RunUntil(5 * sim.Second)
	rendered := tracer.Render()
	for _, want := range []string{"link-down", "link-up", "jam-on", "jam-off"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("trace missing %q:\n%s", want, rendered)
		}
	}
}
