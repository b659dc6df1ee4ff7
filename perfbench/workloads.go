package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"amac/internal/scenario"
	"amac/internal/topology"
)

// defaultSeed is the workload seed whose simulated outputs are recorded in
// recorded.json. At this seed bmmb-rgg-scale runs on exactly the network of
// scenarios/large-n-rgg.json and pods-sharded on that of
// scenarios/large-n-pods.json.
const defaultSeed = 1

// Trial counts at full size, sized so that one call takes about three
// seconds on a 2-core Xeon: a run repeats it several times within its
// seconds and reports the median.
const (
	sweepPinnedTrials   = 100
	sweepUnpinnedTrials = 200
	podsTrials          = 3
)

// workload is one benchmark input set: the specs it runs, derived from the
// workload seed, and the public entry point that runs them.
type workload struct {
	name string
	// specs returns the workload's scenario specs for a seed. small selects
	// the reduced-size smoke variant the self-tests run; dir is a directory
	// the run may write trace files into.
	specs func(seed int64, small bool, dir string) []scenario.Spec
	// sweep runs the specs through scenario.SweepWithOptions at
	// parallelism; otherwise the single spec goes through scenario.Run.
	sweep       bool
	parallelism int
	// minWalls is the least number of wall-clock calls a run makes, even
	// past its seconds. One bmmb-rgg-scale call takes over ten seconds and
	// its three setup calls over fifteen, so it makes one.
	minWalls int
}

// The host this benchmark targets has two cores, so no workload uses more
// than two workers.
var workloads = []workload{
	{name: "bmmb-rgg-scale", specs: bmmbRGGScale, minWalls: 1},
	{name: "fmmb-enhanced", specs: fmmbEnhanced, minWalls: 3},
	{name: "sweep-checked", specs: sweepChecked, sweep: true, parallelism: 2, minWalls: 3},
	{name: "pods-sharded", specs: podsSharded, minWalls: 3},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// rggSide is the square side that gives an n-node unit-disk rgg an average
// degree of 4·ln n, the density of the repository's large-n experiments.
func rggSide(n int) float64 {
	return math.Sqrt(math.Pi * float64(n) / (4 * math.Log(float64(n))))
}

// bmmbRGGScale is BMMB in the standard model on the 10^5-node rgg of
// scenarios/large-n-rgg.json, trace off. Half its time is building the
// network; the rest is MAC delivery. No automaton-heavy, trace or check
// work happens, so it is the bypass for those layers.
func bmmbRGGScale(seed int64, small bool, _ string) []scenario.Spec {
	n, side := 100000, 82.6
	if small {
		n, side = 2000, rggSide(2000)
	}
	return []scenario.Spec{{
		Name: "bmmb-rgg-scale",
		Topology: scenario.TopologySpec{Name: "rgg",
			Params: topology.Params{"n": float64(n), "side": side, "c": 1.6, "p": 0.5},
			Seed:   424241 + seed},
		Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 2},
		Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
		Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
		Run:       scenario.RunSpec{Seed: seed, Trials: 1, Trace: "off"},
	}}
}

// fmmbEnhanced is FMMB in the enhanced model under the default slot
// scheduler on a connected 1000-node rgg. Setup is tiny and the run makes
// millions of sim events, so it isolates the sim queue, sched.Slot and the
// FMMB automata. At the default seed the network is the n=1000 draw of the
// large-n experiment family (topology seed 424200).
func fmmbEnhanced(seed int64, small bool, _ string) []scenario.Spec {
	n := 1000
	if small {
		n = 120
	}
	return []scenario.Spec{{
		Name: "fmmb-enhanced",
		Topology: scenario.TopologySpec{Name: "rgg",
			Params: topology.Params{"n": float64(n), "side": rggSide(n), "c": 1.6, "p": 0.5},
			Seed:   424199 + seed},
		Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 8},
		Algorithm: scenario.AlgorithmSpec{Name: "fmmb"},
		Run:       scenario.RunSpec{Seed: seed, Trials: 1, Trace: "off"},
	}}
}

// sweepChecked is the paper-reproduction path: many short checked trials
// of a pinned grey-zone grid (warm-arena reuse) and of a per-trial rgg draw
// (per-trial build plus Runner.Rebind), each verified by check.All and
// check.MMB against its in-memory trace.
func sweepChecked(seed int64, small bool, _ string) []scenario.Spec {
	pinned, unpinned := sweepPinnedTrials, sweepUnpinnedTrials
	if small {
		pinned, unpinned = 4, 6
	}
	return []scenario.Spec{
		{
			Name: "grid-crosstalk-pinned",
			Topology: scenario.TopologySpec{Name: "grid-crosstalk",
				Params: topology.Params{"rows": 20, "cols": 20, "r": 2, "p": 0.5},
				Seed:   7000 + seed},
			Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 8},
			Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
			Scheduler: scenario.SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
			Run:       scenario.RunSpec{Seed: 100000 * seed, Trials: pinned, Check: true},
		},
		{
			Name: "rgg-unpinned",
			Topology: scenario.TopologySpec{Name: "rgg",
				Params: topology.Params{"n": 200, "side": 6, "c": 1.6, "p": 0.5}},
			Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 4},
			Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
			Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
			Run:       scenario.RunSpec{Seed: 100000*seed + 50000, Trials: unpinned, Check: true},
		},
	}
}

// podsSharded is BMMB on 16 disjoint 10^5-node pods through the
// component-sharded executor at two shards, streaming each trial's merged
// trace through sim.TraceWriter into dir. It is the only workload that
// exercises the sharded executor, its serial trace merge and TraceWriter.
func podsSharded(seed int64, small bool, dir string) []scenario.Spec {
	n, trials := 100000, podsTrials
	if small {
		n, trials = 4000, 2
	}
	return []scenario.Spec{{
		Name: "pods-sharded",
		Topology: scenario.TopologySpec{Name: "pods",
			Params: topology.Params{"n": float64(n), "k": 16, "r": 2, "p": 0.5},
			Seed:   535352 + seed},
		Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 64},
		Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
		Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
		Run: scenario.RunSpec{Seed: seed, Trials: trials, Shards: 2, Trace: "stream",
			TraceFile: filepath.Join(dir, "pods.amtr")},
	}}
}

// withStepLimit returns copies of specs that stop every trial at its first
// sim event: the same call then measures everything except simulation.
func withStepLimit(specs []scenario.Spec) []scenario.Spec {
	out := make([]scenario.Spec, len(specs))
	for i, s := range specs {
		s.Run.StepLimit = 1
		out[i] = s
	}
	return out
}

// call runs the workload's public entry point on specs and returns its
// reports and the host time the call took.
func (w workload) call(specs []scenario.Spec) ([]*scenario.Report, time.Duration, error) {
	start := time.Now()
	var reps []*scenario.Report
	var err error
	if w.sweep {
		reps, err = scenario.SweepWithOptions(specs, scenario.SweepOptions{Parallelism: w.parallelism})
	} else {
		var rep *scenario.Report
		rep, err = scenario.Run(specs[0])
		reps = []*scenario.Report{rep}
	}
	return reps, time.Since(start), err
}

// traceFiles lists the per-trial trace files a pods-sharded report wrote.
func traceFiles(rep *scenario.Report) []string {
	if rep.Spec.Run.TraceFile == "" {
		return nil
	}
	out := make([]string, len(rep.Trials))
	for i, t := range rep.Trials {
		out[i] = scenario.TraceFilePath(rep.Spec.Run.TraceFile, t.Seed)
	}
	return out
}
