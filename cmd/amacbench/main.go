// Command amacbench regenerates the paper's full evaluation: every cell of
// the results table (Figure 1), the Figure 2 lower-bound construction, and
// the per-subroutine lemma measurements, printed as ASCII tables with
// measured-vs-bound ratios and shape verdicts. EXPERIMENTS.md is the
// curated record of one such run.
//
// Usage:
//
//	amacbench [-quick] [-trials N] [-seed S] [-check] [-parallel P]
//	          [-only id-substring] [-experiments large-n]
//	          [-json BENCH.json] [-server http://host:7437]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -experiments enables gated experiment groups (comma-separated). The
// large-n group pushes sweeps to n = 10^5 and takes minutes to hours; it
// never runs by default and its records stay out of the benchdiff gate.
//
// -parallel runs each experiment's (sweep point, trial) simulations on a
// bounded worker pool; tables are byte-identical at any parallelism.
// -json appends a machine-readable perf record per experiment (wall time,
// simulation events, events/sec, allocations), the repo's perf trajectory;
// cmd/benchdiff compares two such records and gates CI on regressions.
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (see PERFORMANCE.md for the profiling workflow); the memory
// profile is a heap snapshot taken after the last experiment, with
// runtime.MemProfileRate raised so allocation sites are attributed
// accurately.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"amac/internal/harness"
	"amac/internal/jobs"
	"amac/internal/perfrecord"
	"amac/internal/scenario"
)

func main() {
	quick := flag.Bool("quick", false, "use the reduced sweep sizes (as the benchmarks do)")
	trials := flag.Int("trials", 3, "repetitions per data point")
	seed := flag.Int64("seed", 1, "base random seed")
	checkFlag := flag.Bool("check", false, "verify the abstract MAC layer guarantees on every run (slower)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker pool size for sweep points and trials")
	only := flag.String("only", "", "run only experiments whose id contains this substring")
	gates := flag.String("experiments", "", "comma-separated gated experiment groups to enable (e.g. \"large-n\"); gated experiments are skipped by default")
	server := flag.String("server", "", "run experiment sweeps on an amacd daemon at this base URL instead of in-process")
	jsonPath := flag.String("json", "", "write a machine-readable perf record (events/sec, allocs) to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this path")
	memProfile := flag.String("memprofile", "", "write an allocation profile (heap, alloc_objects/alloc_space) to this path")
	flag.Parse()

	if *memProfile != "" {
		// Sample every allocation so small per-event sites are attributed
		// exactly; set before any experiment allocates.
		runtime.MemProfileRate = 1
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	opts := harness.Options{
		Quick:       *quick,
		Trials:      *trials,
		Seed:        *seed,
		Check:       *checkFlag,
		Parallelism: *parallel,
	}
	if *server != "" {
		client := &jobs.Client{Base: *server}
		opts.Sweeper = func(id string, specs []scenario.Spec, _ scenario.SweepOptions) ([]*scenario.Report, error) {
			return client.RunSpecs(id, specs)
		}
	}

	experiments := harness.Experiments()

	fmt.Printf("# amacbench — reproduction of Ghaffari, Kantor, Lynch, Newport (PODC 2014)\n")
	fmt.Printf("# options: quick=%v trials=%d seed=%d check=%v parallel=%d\n\n",
		*quick, *trials, *seed, *checkFlag, *parallel)

	bench := perfrecord.File{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Parallelism: *parallel,
		Quick:       *quick,
		Trials:      *trials,
		Seed:        *seed,
	}
	enabled := map[string]bool{}
	for _, g := range strings.Split(*gates, ",") {
		if g = strings.TrimSpace(g); g != "" {
			enabled[g] = true
		}
	}
	ran := 0
	for _, e := range experiments {
		if *only != "" && !strings.Contains(e.ID, *only) {
			continue
		}
		if e.Gate != "" && !enabled[e.Gate] {
			continue
		}
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		harness.ResetSimEvents()
		start := time.Now()
		tab := e.Run(opts)
		wall := time.Since(start)
		events := harness.SimEvents()
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		tab.Render(os.Stdout)
		fmt.Printf("  (%s in %v, %d sim events, %.0f events/sec)\n\n",
			e.ID, wall.Round(time.Millisecond), events,
			float64(events)/wall.Seconds())
		rec := perfrecord.Record{
			ID:           e.ID,
			WallSeconds:  wall.Seconds(),
			SimEvents:    events,
			EventsPerSec: float64(events) / wall.Seconds(),
			Allocs:       msAfter.Mallocs - msBefore.Mallocs,
			AllocBytes:   msAfter.TotalAlloc - msBefore.TotalAlloc,
		}
		rec.Normalize()
		bench.Experiments = append(bench.Experiments, rec)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "amacbench: no experiment matches -only=%q\n", *only)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := bench.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# perf record written to %s\n", *jsonPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so alloc_* totals are complete
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("# allocation profile written to %s\n", *memProfile)
	}
}
