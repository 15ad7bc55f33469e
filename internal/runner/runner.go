// Package runner executes batches of independent simulation points
// across a pool of worker goroutines.
//
// The paper's argument for simulation over hardware measurement is
// design-space exploration speed (§4–§5): sweeping cycle lengths,
// sampling rates, network sizes and channel models over a grid of
// scenarios. Each point is one core.Run — a complete simulation owning
// its private kernel, RNG, channel and nodes — so points are
// embarrassingly parallel. The runner exploits that while preserving the
// framework's determinism contract:
//
//   - A point's outcome depends only on its Config (including its Seed),
//     never on the worker that ran it, the number of workers, or the
//     completion order of other points. Equal batches produce deep-equal
//     result slices at any worker count.
//   - Results are collected in input order: out[i] always corresponds to
//     points[i], regardless of which point finished first.
//   - A panic inside one point is recovered and converted into that
//     point's error result instead of killing the whole sweep.
//
// The batch layer is resilient (DESIGN.md §16): RunCtx stops dispatching
// on context cancellation, drains in-flight points and marks the rest
// Skipped; Options.Journal persists completed points so an interrupted
// sweep resumes where it stopped. A point bounds its own run through
// Config.MaxEvents and Config.Interrupt, the kernel watchdog.
//
// Run with the race detector ("make race") to verify the isolation
// assumption against the actual model code.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Point is one experiment in a batch: a label for reporting plus the
// complete scenario configuration.
type Point struct {
	// Label names the point in results and progress output
	// (e.g. "cycle=30ms").
	Label string
	// Config is the scenario, passed to core.Run verbatim. The Seed it
	// carries fully determines the point's random streams; use DeriveSeed
	// to give replicated points well-separated seeds.
	Config core.Config
}

// Result is the outcome of one point.
type Result struct {
	// Index is the point's position in the input slice; Run returns
	// results sorted by it.
	Index int
	// Label echoes Point.Label.
	Label string
	// Config echoes Point.Config.
	Config core.Config
	// Res holds the simulation outcome when Err is nil.
	Res core.Results
	// Err is the point's failure: a validation/run error from core.Run,
	// a *core.BudgetError from the watchdog, or a *PanicError recovered
	// from the model code.
	Err error
	// Skipped marks a point that was never executed because the batch
	// context was cancelled first. Err is nil; Res is the zero value.
	Skipped bool
	// Restored marks a point whose result was loaded from the resume
	// journal instead of executed. Res carries every numeric field
	// bit-identical to the recorded run; Res.Trace is nil (traces are
	// not journaled).
	Restored bool
}

// Progress is a snapshot handed to the OnProgress callback after each
// point completes.
type Progress struct {
	// Done counts completed points (including failed and
	// journal-restored ones); Total is the batch size.
	Done, Total int
	// Label names the point that just finished.
	Label string
	// Elapsed is wall-clock time since Run started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the mean wall
	// time of the points executed so far (0 when Done == Total or
	// nothing has executed yet). Journal-restored points cost no wall
	// time, so they do not enter the mean.
	ETA time.Duration
	// Events is the cumulative count of kernel events dispatched by the
	// points executed so far — the same counter the metrics snapshots
	// carry, so Events/Elapsed is this batch's throughput. Restored
	// points dispatched theirs in an earlier process and add nothing.
	Events uint64
}

// PanicError is a panic recovered from inside one point's model code.
type PanicError struct {
	// Index and Label identify the point.
	Index int
	Label string
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: point %d (%s) panicked: %v", e.Index, e.Label, e.Value)
}

// Options tunes a batch run.
type Options struct {
	// Workers is the number of concurrent simulations. Zero or negative
	// selects runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, when non-nil, is called after each point completes.
	// Calls are serialised (never concurrent) but may arrive from worker
	// goroutines in completion order, which is not input order.
	OnProgress func(Progress)
	// Exec overrides the function executed per point. Nil selects
	// core.Run. Tests use it to inject failures.
	Exec func(core.Config) (core.Results, error)
	// Journal, when non-nil, persists each completed point and restores
	// points recorded by a previous run (see OpenJournal). Restores are
	// keyed by hash(label, config): a point whose key has a committed
	// record is not executed.
	Journal *Journal
	// Now overrides the wall clock used for progress ETAs. Nil selects
	// time.Now. Simulation results never depend on it.
	Now func() time.Time
}

func (o Options) workers(points int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > points {
		w = points
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every point and returns one Result per point, in input
// order. It blocks until the whole batch has completed; failed points
// carry their error in Result.Err and never abort the rest of the batch.
func Run(points []Point, opts Options) []Result {
	return RunCtx(context.Background(), points, opts)
}

// RunCtx is Run under a context: when ctx is cancelled the batch stops
// dispatching new points, lets in-flight points drain to completion
// (their results are kept — a cancelled batch never wastes finished
// work), and marks every undispatched point Skipped. The returned slice
// always has one entry per input point, in input order. Cancellation
// does not abort a running point; bound individual points with
// Config.MaxEvents or Config.Interrupt instead.
func RunCtx(ctx context.Context, points []Point, opts Options) []Result {
	results := make([]Result, len(points))
	for i := range results {
		results[i] = Result{Index: i, Label: points[i].Label, Config: points[i].Config}
	}
	if len(points) == 0 {
		return results
	}
	exec := opts.Exec
	if exec == nil {
		exec = core.Run
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	start := now()

	var mu sync.Mutex // serialises done counting + OnProgress
	done, executed := 0, 0
	var events uint64
	finish := func(i int) {
		if opts.OnProgress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		if !results[i].Restored {
			executed++
			events += results[i].Res.KernelEvents
		}
		elapsed := now().Sub(start)
		var eta time.Duration
		if rest := len(points) - done; rest > 0 && executed > 0 {
			eta = elapsed / time.Duration(executed) * time.Duration(rest)
		}
		opts.OnProgress(Progress{
			Done:    done,
			Total:   len(points),
			Label:   points[i].Label,
			Elapsed: elapsed,
			ETA:     eta,
			Events:  events,
		})
	}

	// Journal restore: points with a committed record skip execution.
	pending := make([]int, 0, len(points))
	for i := range points {
		if opts.Journal != nil {
			if res, ok := opts.Journal.lookup(points[i]); ok {
				results[i].Res = res
				results[i].Restored = true
				finish(i)
				continue
			}
		}
		pending = append(pending, i)
	}

	// Workers pull indices from a channel and write to disjoint slots of
	// the pre-allocated results slice, so collection is ordered and
	// lock-free by construction.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := opts.workers(len(pending)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runPoint(exec, points, i)
				if opts.Journal != nil {
					opts.Journal.record(&results[i])
				}
				finish(i)
			}
		}()
	}
	for n, i := range pending {
		// Check the context first: with a worker ready to receive, select
		// picks at random between the send and an already-closed Done.
		if ctx.Err() == nil {
			select {
			case idx <- i:
				continue
			case <-ctx.Done():
			}
		}
		// Nothing from pending[n:] was handed to a worker, so these slots
		// are ours to mark.
		for _, j := range pending[n:] {
			results[j].Skipped = true
		}
		break
	}
	close(idx)
	wg.Wait()
	return results
}

// runPoint executes one point, converting a model panic into an error
// so a single bad configuration cannot kill a thousand-point sweep. The
// point runs under pprof labels ("point", "index"), so a CPU profile of
// a sweep attributes samples to experiment points, not just to model
// functions.
func runPoint(exec func(core.Config) (core.Results, error), points []Point, i int) (r Result) {
	p := points[i]
	r = Result{Index: i, Label: p.Label, Config: p.Config}
	defer func() {
		if rec := recover(); rec != nil {
			r.Err = &PanicError{Index: i, Label: p.Label, Value: rec}
		}
	}()
	labels := pprof.Labels("point", p.Label, "index", strconv.Itoa(i))
	pprof.Do(context.Background(), labels, func(context.Context) {
		r.Res, r.Err = exec(p.Config)
	})
	return r
}

// AggregateMetrics merges the metrics snapshots of every successful point
// into one batch-level snapshot. Points that failed or ran without
// Config.Metrics contribute nothing; nil is returned when no point
// carried a snapshot. The merge is key-wise addition over sorted rows, so
// the aggregate is identical at any worker count.
func AggregateMetrics(results []Result) *metrics.Snapshot {
	var snaps []*metrics.Snapshot
	any := false
	for _, r := range results {
		if r.Err == nil && r.Res.Metrics != nil {
			snaps = append(snaps, r.Res.Metrics)
			any = true
		}
	}
	if !any {
		return nil
	}
	return metrics.Merge(snaps)
}

// FirstErr returns the first failed result in input order, or nil when
// the whole batch succeeded. Sweep commands use it to fail fast with a
// point-attributed message.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Label, r.Err)
		}
	}
	return nil
}

// Skipped counts points the batch never executed because its context
// was cancelled.
func Skipped(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Skipped {
			n++
		}
	}
	return n
}

// Restored counts points loaded from the resume journal.
func Restored(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Restored {
			n++
		}
	}
	return n
}

// DeriveSeed maps a batch base seed and a point index to a
// well-separated per-point seed. The mapping is a fixed bijective mixing
// function (splitmix64 finaliser), so replicated points get
// decorrelated random streams while the whole batch stays reproducible
// from the single base seed. DeriveSeed(base, i) never depends on worker
// count or scheduling.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + uint64(index)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
