// Command tables regenerates every table and figure of the paper's
// evaluation section (Tables 1-4 and Figure 4), prints them next to the
// published values with per-row and average errors, and follows them
// with the extension experiments.
//
// Simulation points fan out across -workers goroutines (default: all
// cores); the printed numbers are identical at any worker count.
//
// SIGINT/SIGTERM cancel the batch: completed rows still render (tables
// are marked PARTIAL, missing rows carry the reason) and the process
// exits non-zero. A failed simulation point likewise renders as an
// omitted row and fails the run, so CI never mistakes a partial
// regeneration for a clean one.
//
//	tables            # full 60 s windows, as in the paper
//	tables -fast      # 6 s windows scaled back to the 60 s basis
//	tables -table table3 -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	var (
		table   = flag.String("table", "all", "table1|table2|table3|table4|figure4|extensions|all")
		seed    = flag.Int64("seed", 1, "simulation seed")
		fast    = flag.Bool("fast", false, "run 6 s windows instead of the paper's 60 s")
		format  = flag.String("format", "text", "output format: text | md | csv (md and csv for the tables only)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = sequential; results are identical either way)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := experiments.Options{Seed: *seed, Workers: *workers, Ctx: ctx}
	if *fast {
		opts.Duration = 6 * sim.Second
	}
	if err := experiments.Print(os.Stdout, *table, *format, opts); err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
	}
}
