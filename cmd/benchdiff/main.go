// Command benchdiff compares two amacbench perf records (BENCH.json) and
// fails when any experiment's throughput or per-event allocation regressed
// past the threshold — the CI regression gate. It matches experiments by
// id, reports events/sec and allocs/event side by side, and exits non-zero
// on a regression or on an experiment that disappeared from the new record.
//
// Usage:
//
//	benchdiff -base old/BENCH.json -new BENCH.json [-threshold 0.15] [-min-wall 0.05]
//
// Experiments whose wall time fell below -min-wall seconds in either record
// have their events/sec reported but not gated: at millisecond scale,
// events/sec measures the scheduler, not the simulator. Allocations per
// event are deterministic at any speed and are gated regardless (baselines
// recorded before the per-op fields existed carry zeros there and are not
// alloc-gated). An experiment missing from the new record fails the gate
// regardless.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"amac/internal/perfrecord"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges injected, so tests can drive the gate
// end-to-end: 0 = within threshold, 1 = regression or unreadable record,
// 2 = usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "baseline perf record (required)")
	next := fs.String("new", "", "candidate perf record (required)")
	threshold := fs.Float64("threshold", 0.15, "maximum tolerated events/sec drop or allocs/event growth as a fraction (0.15 = 15%)")
	minWall := fs.Float64("min-wall", 0.05, "minimum wall seconds (in both records) for an experiment to be gated rather than just reported")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *next == "" {
		fmt.Fprintln(stderr, "benchdiff: both -base and -new are required")
		fs.Usage()
		return 2
	}
	if *threshold < 0 || *threshold >= 1 {
		fmt.Fprintf(stderr, "benchdiff: -threshold must be in [0, 1), got %g\n", *threshold)
		return 2
	}

	bf, err := perfrecord.Load(*base)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	nf, err := perfrecord.Load(*next)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	if bf.Quick != nf.Quick || bf.Trials != nf.Trials || bf.Seed != nf.Seed ||
		bf.Parallelism != nf.Parallelism {
		fmt.Fprintf(stdout, "note: records were taken under different options — throughput deltas may reflect configuration, not code\n"+
			"  base: quick=%v trials=%d seed=%d parallel=%d\n"+
			"  new:  quick=%v trials=%d seed=%d parallel=%d\n",
			bf.Quick, bf.Trials, bf.Seed, bf.Parallelism,
			nf.Quick, nf.Trials, nf.Seed, nf.Parallelism)
	}

	deltas := perfrecord.Compare(bf, nf)
	if len(deltas) == 0 {
		fmt.Fprintf(stderr, "benchdiff: baseline %s contains no experiments\n", *base)
		return 1
	}
	fmt.Fprintf(stdout, "%-28s %14s %14s %8s %12s %12s %8s\n",
		"experiment", "base ev/s", "new ev/s", "ratio", "base alloc/op", "new alloc/op", "ratio")
	regressed := 0
	for _, d := range deltas {
		switch {
		case d.Missing:
			fmt.Fprintf(stdout, "%-28s %14.0f %14s %8s %12s %12s %8s  MISSING from new record\n",
				d.ID, d.BaseEventsPerSec, "-", "-", "-", "-", "-")
			regressed++
			continue
		case d.Noisy(*minWall):
			// Wall time too short to judge events/sec; per-event allocation
			// is deterministic at any speed, so it is still gated below.
			fmt.Fprintf(stdout, "%-28s %14.0f %14.0f %8.3f %12.2f %12.2f %8.3f  ev/s not gated (ran < %.0fms)\n",
				d.ID, d.BaseEventsPerSec, d.NewEventsPerSec, d.Ratio,
				d.BaseAllocsPerOp, d.NewAllocsPerOp, d.AllocRatio, *minWall*1000)
		case d.Regressed(*threshold):
			fmt.Fprintf(stdout, "%-28s %14.0f %14.0f %8.3f %12.2f %12.2f %8.3f  REGRESSION (> %.0f%% ev/s drop)\n",
				d.ID, d.BaseEventsPerSec, d.NewEventsPerSec, d.Ratio,
				d.BaseAllocsPerOp, d.NewAllocsPerOp, d.AllocRatio, *threshold*100)
			regressed++
		default:
			fmt.Fprintf(stdout, "%-28s %14.0f %14.0f %8.3f %12.2f %12.2f %8.3f  ok\n",
				d.ID, d.BaseEventsPerSec, d.NewEventsPerSec, d.Ratio,
				d.BaseAllocsPerOp, d.NewAllocsPerOp, d.AllocRatio)
		}
		if d.AllocRegressed(*threshold) {
			fmt.Fprintf(stdout, "%-28s %14s %14s %8s %12.2f %12.2f %8.3f  ALLOC REGRESSION (> %.0f%% more allocs/event)\n",
				d.ID, "", "", "", d.BaseAllocsPerOp, d.NewAllocsPerOp, d.AllocRatio, *threshold*100)
			regressed++
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "\nbenchdiff: %d of %d experiments regressed past the %.0f%% threshold\n",
			regressed, len(deltas), *threshold*100)
		return 1
	}
	fmt.Fprintf(stdout, "\nbenchdiff: all %d experiments within the %.0f%% threshold\n",
		len(deltas), *threshold*100)
	return 0
}
