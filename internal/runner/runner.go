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
// Skipped; Options.Budget bounds each point's simulated-event count and
// wall-clock time through the kernel watchdog; Options.Retry re-executes
// transiently-failed points; Options.Journal persists completed points
// so an interrupted sweep resumes where it stopped.
//
// Retry determinism contract: attempt n of a point runs with seed
// RetrySeed(Config.Seed, n) — the base seed for attempt 0, a splitmix64
// derivation for n > 0. The attempt seed depends only on the point's own
// seed and the attempt number, never on worker count, scheduling, or
// which sibling points failed, so a retried point is bit-identical to a
// fresh run of the same attempt, and a batch where nothing fails is
// byte-identical with retries enabled or disabled.
//
// Run with the race detector ("make race") to verify the isolation
// assumption against the actual model code.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// wallClock and wallSleep are the package's only wall-clock taps,
// overridable through Options.Now/Options.Sleep. They feed display-only
// state (progress ETAs, retry pacing, wall budgets) — never simulation
// results.
var (
	wallClock = time.Now
	wallSleep = time.Sleep
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
	// from the model code. Retries, when enabled, have already run: this
	// is the final attempt's error.
	Err error
	// Skipped marks a point that was never executed because the batch
	// context was cancelled first. Err is nil; Res is the zero value.
	Skipped bool
	// Attempts counts executions of this point (1 without retries; 0 for
	// skipped or restored points).
	Attempts int
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
	// ETA estimates the remaining wall-clock time from the mean
	// per-point rate so far (0 when Done == Total).
	ETA time.Duration
	// Events is the cumulative count of kernel events dispatched by the
	// completed points — the same counter the metrics snapshots carry, so
	// progress throughput (events/s) and the final report agree.
	Events uint64
}

// Retry is the batch retry policy. The zero value disables retries.
type Retry struct {
	// Max is the number of re-executions after the first failed attempt
	// (so a point runs at most Max+1 times).
	Max int
	// Backoff is the pause before the first retry; each further retry
	// doubles it. Zero retries immediately.
	Backoff time.Duration
	// Classify reports whether an error is transient (retry) or
	// permanent (give up). Nil selects DefaultClassify.
	Classify func(error) bool
}

// DefaultClassify is the retry policy's default transience test:
// configuration errors can never succeed on re-run, and an exceeded
// event budget is deterministic — the same budget trips at the same
// event every time — so both are permanent. Everything else (recovered
// panics, exec-level failures, wall-clock budget trips) is worth
// another attempt.
func DefaultClassify(err error) bool {
	var cfgErr *core.ConfigError
	if errors.As(err, &cfgErr) {
		return false
	}
	var bud *core.BudgetError
	if errors.As(err, &bud) {
		return bud.Cause == core.BudgetInterrupt
	}
	return true
}

// Budget bounds each point's execution. The zero value is unlimited.
type Budget struct {
	// MaxEvents caps a point's dispatched kernel events (whole run,
	// warmup included). A point whose own Config.MaxEvents is tighter
	// keeps it; otherwise this cap applies. Deterministic: the trip
	// event is a pure function of (Config, Seed).
	MaxEvents uint64
	// Wall caps a point's wall-clock time via the kernel's interrupt
	// hook, polled every sim.DefaultPollEvery events. Trips are
	// machine-dependent, so they classify as transient for retry.
	Wall time.Duration
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
	// selects runtime.GOMAXPROCS(0). Workers == 1 runs the batch inline
	// on the calling goroutine — exactly the pre-runner sequential
	// behaviour.
	Workers int
	// OnProgress, when non-nil, is called after each point completes.
	// Calls are serialised (never concurrent) but may arrive from worker
	// goroutines in completion order, which is not input order.
	OnProgress func(Progress)
	// Exec overrides the function executed per point. Nil selects
	// core.Run. Tests use it to inject failures; alternative backends
	// (e.g. the analytic model) can slot in here.
	Exec func(core.Config) (core.Results, error)
	// Retry re-executes transiently-failed points (see the package's
	// retry determinism contract). Zero value: no retries.
	Retry Retry
	// Budget bounds each point's simulated-event count and wall-clock
	// time, converting a wedged scenario into a *core.BudgetError
	// instead of a hung sweep. Zero value: unlimited.
	Budget Budget
	// Journal, when non-nil, persists each completed point and restores
	// points recorded by a previous run (see OpenJournal). Restores are
	// keyed by hash(label, config): a point whose key has a committed
	// record is not executed.
	Journal *Journal
	// Now overrides the wall clock used for progress ETAs and wall
	// budgets. Nil selects time.Now. Simulation results never depend on
	// it.
	Now func() time.Time
	// Sleep overrides the retry backoff pause. Nil selects time.Sleep.
	Sleep func(time.Duration)
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

func (o Options) exec() func(core.Config) (core.Results, error) {
	if o.Exec != nil {
		return o.Exec
	}
	return core.Run
}

func (o Options) env() *runEnv {
	e := &runEnv{
		exec:     o.exec(),
		retry:    o.Retry,
		classify: o.Retry.Classify,
		budget:   o.Budget,
		now:      o.Now,
		sleep:    o.Sleep,
	}
	if e.classify == nil {
		e.classify = DefaultClassify
	}
	if e.now == nil {
		e.now = wallClock
	}
	if e.sleep == nil {
		e.sleep = wallSleep
	}
	return e
}

// runEnv is the resolved per-batch execution environment.
type runEnv struct {
	exec     func(core.Config) (core.Results, error)
	retry    Retry
	classify func(error) bool
	budget   Budget
	now      func() time.Time
	sleep    func(time.Duration)
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
// Options.Budget instead.
func RunCtx(ctx context.Context, points []Point, opts Options) []Result {
	results := make([]Result, len(points))
	for i := range results {
		results[i] = Result{Index: i, Label: points[i].Label, Config: points[i].Config}
	}
	if len(points) == 0 {
		return results
	}
	env := opts.env()
	start := env.now()

	var mu sync.Mutex // serialises done counting + OnProgress
	done := 0
	var events uint64
	finish := func(i int) {
		if opts.OnProgress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		events += results[i].Res.KernelEvents
		elapsed := env.now().Sub(start)
		var eta time.Duration
		if rest := len(points) - done; rest > 0 {
			eta = elapsed / time.Duration(done) * time.Duration(rest)
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

	record := func(i int) {
		if opts.Journal != nil {
			opts.Journal.record(&results[i])
		}
	}

	workers := opts.workers(len(pending))
	if workers == 1 {
		for _, i := range pending {
			if ctx.Err() != nil {
				results[i].Skipped = true
				continue
			}
			results[i] = env.runPoint(points, i)
			record(i)
			finish(i)
		}
		return results
	}

	// Workers pull indices from a channel and write to disjoint slots of
	// the pre-allocated results slice, so collection is ordered and
	// lock-free by construction.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = env.runPoint(points, i)
				record(i)
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
		close(idx)
		wg.Wait()
		return results
	}
	close(idx)
	wg.Wait()
	return results
}

// runPoint executes one point under the retry policy.
func (e *runEnv) runPoint(points []Point, i int) Result {
	for attempt := 0; ; attempt++ {
		r := e.attempt(points, i, attempt)
		r.Attempts = attempt + 1
		if r.Err == nil || attempt >= e.retry.Max || !e.classify(r.Err) {
			return r
		}
		if e.retry.Backoff > 0 {
			e.sleep(e.retry.Backoff << attempt)
		}
	}
}

// attempt executes one attempt of one point, converting a model panic
// into an error so a single bad configuration cannot kill a
// thousand-point sweep. The point runs under pprof labels
// ("point", "index"), so a CPU profile of a sweep attributes samples to
// experiment points, not just to model functions.
func (e *runEnv) attempt(points []Point, i, attempt int) (r Result) {
	p := points[i]
	r = Result{Index: i, Label: p.Label, Config: p.Config}
	cfg := p.Config
	cfg.Seed = RetrySeed(cfg.Seed, attempt)
	cfg = e.budgeted(cfg)
	defer func() {
		if rec := recover(); rec != nil {
			r.Err = &PanicError{Index: i, Label: p.Label, Value: rec}
		}
	}()
	labels := pprof.Labels("point", p.Label, "index", strconv.Itoa(i))
	pprof.Do(context.Background(), labels, func(context.Context) {
		r.Res, r.Err = e.exec(cfg)
	})
	return r
}

// budgeted applies the batch budget to one attempt's config: the event
// cap tightens (the smaller of the point's own and the batch's), and
// the wall budget chains onto any interrupt hook the point already
// carries.
func (e *runEnv) budgeted(cfg core.Config) core.Config {
	if b := e.budget.MaxEvents; b > 0 && (cfg.MaxEvents == 0 || b < cfg.MaxEvents) {
		cfg.MaxEvents = b
	}
	if e.budget.Wall > 0 {
		deadline := e.now().Add(e.budget.Wall)
		prev := cfg.Interrupt
		now := e.now
		cfg.Interrupt = func() bool {
			if prev != nil && prev() {
				return true
			}
			return now().After(deadline)
		}
	}
	return cfg
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

// RetrySeed maps a point's base seed and a retry attempt to the seed
// that attempt runs with: the base itself for attempt 0, a DeriveSeed
// derivation for each retry. Depends only on (base, attempt), so a
// retried point is bit-identical to a fresh run of the same attempt at
// any worker count.
func RetrySeed(base int64, attempt int) int64 {
	if attempt == 0 {
		return base
	}
	return DeriveSeed(base, attempt)
}
