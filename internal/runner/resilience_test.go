package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
)

// metricConfig is testConfig with the observability snapshot on — the
// journal tests restore it and demand bit-identical numbers.
func metricConfig(seed int64) core.Config {
	cfg := testConfig(seed)
	cfg.Metrics = true
	return cfg
}

func batch(n int, mk func(seed int64) core.Config) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Label: fmt.Sprintf("p%d", i), Config: mk(DeriveSeed(99, i))}
	}
	return pts
}

// stripTrace returns a copy of res with the trace recorder dropped —
// the one field journal restores legitimately lose.
func stripTrace(res core.Results) core.Results {
	res.Trace = nil
	return res
}

func TestRunCtxCancelSequentialIsPrefix(t *testing.T) {
	points := batch(6, testConfig)
	ref := Run(points, Options{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	results := RunCtx(ctx, points, Options{
		Workers: 1,
		OnProgress: func(p Progress) {
			if p.Done == 2 {
				cancel()
			}
		},
	})
	defer cancel()

	for i, r := range results {
		if i < 2 {
			if r.Skipped {
				t.Fatalf("point %d skipped before the cancel", i)
			}
			if r.Err != nil {
				t.Fatalf("point %d: %v", i, r.Err)
			}
			if !reflect.DeepEqual(r.Res, ref[i].Res) {
				t.Fatalf("completed point %d differs from the uninterrupted run", i)
			}
		} else {
			if !r.Skipped {
				t.Fatalf("point %d not skipped after the cancel", i)
			}
			if r.Err != nil || r.Attempts != 0 {
				t.Fatalf("skipped point %d carries err=%v attempts=%d", i, r.Err, r.Attempts)
			}
		}
	}
	if got := Skipped(results); got != 4 {
		t.Fatalf("Skipped = %d, want 4", got)
	}
}

func TestRunCtxCancelDrainsInFlight(t *testing.T) {
	// Workers block inside their point until released; the batch is
	// cancelled while they are in flight. The in-flight points must
	// complete normally — only undispatched points are skipped.
	points := batch(8, testConfig)
	started := make(chan int, len(points))
	release := make(chan struct{})
	var execs atomic.Int32
	exec := func(cfg core.Config) (core.Results, error) {
		execs.Add(1)
		started <- 1
		<-release
		return core.Run(cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []Result)
	go func() {
		done <- RunCtx(ctx, points, Options{Workers: 2, Exec: exec})
	}()
	<-started
	<-started
	cancel()
	close(release)
	results := <-done

	completed := 0
	for i, r := range results {
		switch {
		case r.Skipped:
			if r.Err != nil {
				t.Fatalf("skipped point %d has error %v", i, r.Err)
			}
		default:
			completed++
			if r.Err != nil {
				t.Fatalf("drained point %d failed: %v", i, r.Err)
			}
			if r.Res.KernelEvents == 0 {
				t.Fatalf("drained point %d has an empty result", i)
			}
		}
	}
	// Both blocked workers drained; the dispatcher may have handed out
	// at most one more point before observing the cancel.
	if completed < 2 || completed != int(execs.Load()) {
		t.Fatalf("completed %d points across %d execs", completed, execs.Load())
	}
	if completed+Skipped(results) != len(points) {
		t.Fatalf("results neither completed nor skipped: %d + %d != %d",
			completed, Skipped(results), len(points))
	}
}

func TestRunCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := RunCtx(ctx, batch(3, testConfig), Options{Workers: 2})
	if got := Skipped(results); got != 3 {
		t.Fatalf("Skipped = %d, want all 3", got)
	}
}

func TestRetryDeterministicAcrossWorkerCounts(t *testing.T) {
	points := batch(5, testConfig)
	target := points[2].Config.Seed
	// The target point fails its first attempt (recognised by its
	// attempt-0 seed) and succeeds on retry, which runs with
	// RetrySeed(seed, 1).
	exec := func(cfg core.Config) (core.Results, error) {
		if cfg.Seed == target {
			return core.Results{}, errors.New("transient wobble")
		}
		return core.Run(cfg)
	}
	opts := func(workers int) Options {
		return Options{Workers: workers, Exec: exec, Retry: Retry{Max: 2}}
	}
	one := Run(points, opts(1))
	four := Run(points, opts(4))

	for i := range points {
		if one[i].Err != nil {
			t.Fatalf("point %d: %v", i, one[i].Err)
		}
		if !reflect.DeepEqual(one[i].Res, four[i].Res) {
			t.Fatalf("point %d differs between 1 and 4 workers", i)
		}
	}
	if one[2].Attempts != 2 {
		t.Fatalf("target Attempts = %d, want 2", one[2].Attempts)
	}
	// The retried result is bit-identical to a fresh run of attempt 1.
	fresh := points[2].Config
	fresh.Seed = RetrySeed(target, 1)
	want, err := core.Run(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one[2].Res, want) {
		t.Fatalf("retried point differs from a fresh run of the same attempt")
	}
}

func TestRetryNeverRetriesValidationErrors(t *testing.T) {
	bad := testConfig(1)
	bad.Nodes = 0
	var execs atomic.Int32
	exec := func(cfg core.Config) (core.Results, error) {
		execs.Add(1)
		return core.Run(cfg)
	}
	results := Run([]Point{{Label: "bad", Config: bad}}, Options{
		Workers: 1, Exec: exec, Retry: Retry{Max: 5},
	})
	if execs.Load() != 1 || results[0].Attempts != 1 {
		t.Fatalf("validation error retried: %d execs, %d attempts", execs.Load(), results[0].Attempts)
	}
	var cfgErr *core.ConfigError
	if !errors.As(results[0].Err, &cfgErr) {
		t.Fatalf("error %v is not a ConfigError", results[0].Err)
	}
}

func TestRetryNeverRetriesEventBudget(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxEvents = 500
	var execs atomic.Int32
	exec := func(c core.Config) (core.Results, error) {
		execs.Add(1)
		return core.Run(c)
	}
	results := Run([]Point{{Label: "wedged", Config: cfg}}, Options{
		Workers: 1, Exec: exec, Retry: Retry{Max: 5},
	})
	if !errors.Is(results[0].Err, core.ErrBudgetExceeded) {
		t.Fatalf("error = %v, want a budget error", results[0].Err)
	}
	if execs.Load() != 1 {
		t.Fatalf("deterministic budget trip retried %d times", execs.Load()-1)
	}
}

func TestRetryBackoffDoublesThroughInjectedSleep(t *testing.T) {
	var slept []time.Duration
	exec := func(core.Config) (core.Results, error) {
		return core.Results{}, errors.New("always down")
	}
	results := Run([]Point{{Label: "x", Config: testConfig(1)}}, Options{
		Workers: 1,
		Exec:    exec,
		Retry:   Retry{Max: 3, Backoff: 10 * time.Millisecond},
		Sleep:   func(d time.Duration) { slept = append(slept, d) },
		Now:     func() time.Time { return time.Unix(0, 0) },
	})
	if results[0].Attempts != 4 {
		t.Fatalf("Attempts = %d, want 4", results[0].Attempts)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("backoff sleeps = %v, want %v", slept, want)
	}
}

func TestBudgetExceededDoesNotAbortSiblings(t *testing.T) {
	points := batch(4, testConfig)
	points[1].Config.MaxEvents = 200
	results := Run(points, Options{Workers: 2})
	for i, r := range results {
		if i == 1 {
			if !errors.Is(r.Err, core.ErrBudgetExceeded) {
				t.Fatalf("budgeted point error = %v", r.Err)
			}
			var bud *core.BudgetError
			if !errors.As(r.Err, &bud) || bud.Cause != core.BudgetEvents || bud.Events != 200 {
				t.Fatalf("budget error detail = %+v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("sibling %d aborted: %v", i, r.Err)
		}
	}
}

func TestBatchBudgetTightensPointBudget(t *testing.T) {
	// The batch cap applies where the point has none, and never loosens
	// a tighter per-point cap.
	points := batch(2, testConfig)
	points[1].Config.MaxEvents = 100
	results := Run(points, Options{Workers: 1, Budget: Budget{MaxEvents: 300}})
	var b0, b1 *core.BudgetError
	if !errors.As(results[0].Err, &b0) || b0.Events != 300 {
		t.Fatalf("point 0: %v, want a 300-event trip", results[0].Err)
	}
	if !errors.As(results[1].Err, &b1) || b1.Events != 100 {
		t.Fatalf("point 1: %v, want the tighter 100-event trip", results[1].Err)
	}
}

func TestWallBudgetTripsAsTransient(t *testing.T) {
	// A fake clock that leaps an hour per reading makes the wall budget
	// trip at the first poll, on every attempt; wall trips classify as
	// transient, so the retry policy runs the point Max+1 times.
	var ticks atomic.Int64
	now := func() time.Time {
		return time.Unix(ticks.Add(1)*3600, 0)
	}
	var execs atomic.Int32
	exec := func(c core.Config) (core.Results, error) {
		execs.Add(1)
		return core.Run(c)
	}
	results := Run([]Point{{Label: "slow", Config: testConfig(1)}}, Options{
		Workers: 1,
		Exec:    exec,
		Now:     now,
		Sleep:   func(time.Duration) {},
		Budget:  Budget{Wall: time.Second},
		Retry:   Retry{Max: 2},
	})
	var bud *core.BudgetError
	if !errors.As(results[0].Err, &bud) || bud.Cause != core.BudgetInterrupt {
		t.Fatalf("error = %v, want an interrupt budget trip", results[0].Err)
	}
	if execs.Load() != 3 || results[0].Attempts != 3 {
		t.Fatalf("wall trip not retried: %d execs, %d attempts", execs.Load(), results[0].Attempts)
	}
}

func TestJournalResumeDeepEqualsUninterruptedRun(t *testing.T) {
	points := batch(4, metricConfig)
	ref := Run(points, Options{Workers: 2})
	if err := FirstErr(ref); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.jnl")

	// First run: journaled, cancelled after two points complete — the
	// library-level stand-in for a SIGTERM kill.
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := RunCtx(ctx, points, Options{
		Workers: 1,
		Journal: j,
		OnProgress: func(p Progress) {
			if p.Done == 2 {
				cancel()
			}
		},
	})
	cancel()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := Skipped(first); got != 2 {
		t.Fatalf("first run skipped %d points, want 2", got)
	}

	// Resume at a different worker count: recorded points restore,
	// the rest execute, and every result matches the uninterrupted run
	// bit-for-bit (traces excepted on restored points).
	j, err = OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	resumed := Run(points, Options{Workers: 3, Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := Restored(resumed); got != 2 {
		t.Fatalf("resumed run restored %d points, want 2", got)
	}
	for i, r := range resumed {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if r.Restored {
			if r.Res.Trace != nil {
				t.Fatalf("restored point %d carries a trace", i)
			}
			if !reflect.DeepEqual(r.Res, stripTrace(ref[i].Res)) {
				t.Fatalf("restored point %d differs from the uninterrupted run", i)
			}
		} else if !reflect.DeepEqual(r.Res, ref[i].Res) {
			t.Fatalf("executed point %d differs from the uninterrupted run", i)
		}
	}
	if resumed[0].Res.Metrics == nil {
		t.Fatal("metrics snapshot lost across the journal round trip")
	}
}

func TestJournalDamageRerunsOnlyAffectedPoints(t *testing.T) {
	points := batch(4, metricConfig)
	path := filepath.Join(t.TempDir(), "sweep.jnl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstErr(Run(points, Options{Workers: 1, Journal: j})); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := []struct {
		name    string
		mutate  func([]byte) []byte
		reruns  int32
		restore int
	}{
		{"bitflip", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)/8] ^= 0x08 // inside the first record
			return out
		}, 1, 3},
		{"truncated-tail", func(b []byte) []byte {
			return b[:len(b)-7]
		}, 1, 3},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "damaged.jnl")
			if err := os.WriteFile(p, d.mutate(img), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(p, true)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if j.Stats().CorruptRecords == 0 && !j.Stats().TruncatedTail {
				t.Fatalf("damage not detected: %+v", j.Stats())
			}
			var execs atomic.Int32
			exec := func(c core.Config) (core.Results, error) {
				execs.Add(1)
				return core.Run(c)
			}
			results := Run(points, Options{Workers: 2, Journal: j, Exec: exec})
			if err := FirstErr(results); err != nil {
				t.Fatal(err)
			}
			if execs.Load() != d.reruns {
				t.Fatalf("re-ran %d points, want %d", execs.Load(), d.reruns)
			}
			if got := Restored(results); got != d.restore {
				t.Fatalf("restored %d points, want %d", got, d.restore)
			}
		})
	}
}

func TestJournalWithoutResumeIgnoresExistingRecords(t *testing.T) {
	points := batch(2, testConfig)
	path := filepath.Join(t.TempDir(), "sweep.jnl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	Run(points, Options{Workers: 1, Journal: j})
	j.Close()

	j, err = OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	results := Run(points, Options{Workers: 1, Journal: j})
	if got := Restored(results); got != 0 {
		t.Fatalf("non-resume run restored %d points", got)
	}
}

func TestPointKeySensitivity(t *testing.T) {
	p := Point{Label: "a", Config: testConfig(1)}
	same := PointKey(p)
	if PointKey(p) != same {
		t.Fatal("PointKey not stable")
	}
	q := p
	q.Label = "b"
	if PointKey(q) == same {
		t.Fatal("label change did not move the key")
	}
	q = p
	q.Config.Seed++
	if PointKey(q) == same {
		t.Fatal("seed change did not move the key")
	}
	q = p
	q.Config.Metrics = !q.Config.Metrics
	if PointKey(q) == same {
		t.Fatal("metrics flag change did not move the key")
	}
}

func TestRetrySeed(t *testing.T) {
	if RetrySeed(42, 0) != 42 {
		t.Fatal("attempt 0 must run the base seed")
	}
	if RetrySeed(42, 1) == 42 || RetrySeed(42, 1) != DeriveSeed(42, 1) {
		t.Fatal("retry seeds must be DeriveSeed derivations")
	}
	if RetrySeed(42, 1) == RetrySeed(42, 2) {
		t.Fatal("attempts must get distinct seeds")
	}
}

func TestJournalOpenErrors(t *testing.T) {
	dir := t.TempDir()
	// Resuming from a directory is unreadable as a journal file.
	if _, err := OpenJournal(dir, true); err == nil {
		t.Fatal("resume from a directory succeeded")
	}
	// The writer cannot create its file in a missing directory.
	if _, err := OpenJournal(filepath.Join(dir, "no", "such", "dir.jnl"), false); err == nil {
		t.Fatal("journal in a missing directory succeeded")
	}
}

func TestJournalCloseIdempotentAndRecordAfterClose(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "j.jnl"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Recording into a closed journal is a silent no-op, not a panic —
	// the sweep outlives its journal on a write error.
	j.record(&Result{Label: "x"})
}

func TestJournalUndecodablePayloadReruns(t *testing.T) {
	// A record whose payload no longer decodes (schema drift between
	// runs) must be treated as absent, so the point re-runs cleanly.
	path := filepath.Join(t.TempDir(), "j.jnl")
	p := Point{Label: "pt", Config: metricConfig(DeriveSeed(99, 0))}
	w, err := journal.OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(PointKey(p), []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	results := RunCtx(context.Background(), []Point{p}, Options{Workers: 1, Journal: j})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].Restored {
		t.Fatal("undecodable payload was restored as a result")
	}
}

func TestRunEmptyBatch(t *testing.T) {
	if res := Run(nil, Options{}); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}

func TestWallBudgetChainsOntoPointInterrupt(t *testing.T) {
	// A point carrying its own interrupt hook keeps it when the batch
	// adds a wall budget: the hooks chain, either one trips the run.
	cfg := metricConfig(1)
	cfg.Interrupt = func() bool { return true }
	results := Run([]Point{{Label: "chained", Config: cfg}}, Options{
		Workers: 1,
		Budget:  Budget{Wall: time.Hour},
	})
	var bud *core.BudgetError
	if !errors.As(results[0].Err, &bud) || bud.Cause != core.BudgetInterrupt {
		t.Fatalf("err = %v, want an interrupt BudgetError", results[0].Err)
	}
}

// TestResumedProgressCountsExecutedPointsOnly: journal-restored points
// count toward Done, but they dispatched their events in an earlier
// process and cost no wall time now, so Events and the ETA's per-point
// mean come from the executed points alone.
func TestResumedProgressCountsExecutedPointsOnly(t *testing.T) {
	points := batch(4, testConfig)
	path := filepath.Join(t.TempDir(), "sweep.jnl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	earlier := func(core.Config) (core.Results, error) { return core.Results{KernelEvents: 5000}, nil }
	if err := FirstErr(Run(points[:2], Options{Workers: 1, Journal: j, Exec: earlier})); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Each executed point takes one second on the injected clock.
	var clock time.Duration
	exec := func(core.Config) (core.Results, error) {
		clock += time.Second
		return core.Results{KernelEvents: 1000}, nil
	}
	j, err = OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var seen []Progress
	results := Run(points, Options{
		Workers:    1,
		Journal:    j,
		Exec:       exec,
		Now:        func() time.Time { return time.Unix(0, 0).Add(clock) },
		OnProgress: func(p Progress) { seen = append(seen, p) },
	})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := Restored(results); got != 2 {
		t.Fatalf("restored %d points, want 2", got)
	}
	want := []struct {
		events uint64
		eta    time.Duration
	}{
		{0, 0},              // restored: nothing executed, no estimate yet
		{0, 0},              // restored
		{1000, time.Second}, // one executed point at 1 s, one point left
		{2000, 0},           // done
	}
	if len(seen) != len(want) {
		t.Fatalf("progress called %d times, want %d", len(seen), len(want))
	}
	for i, w := range want {
		p := seen[i]
		if p.Done != i+1 || p.Events != w.events || p.ETA != w.eta {
			t.Errorf("progress %d: Done=%d Events=%d ETA=%v, want Done=%d Events=%d ETA=%v",
				i, p.Done, p.Events, p.ETA, i+1, w.events, w.eta)
		}
	}
}
