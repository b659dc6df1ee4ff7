package harness

import (
	"fmt"

	"amac/internal/scenario"
	"amac/internal/sim"
)

// Options configures the experiment harness.
type Options struct {
	// Fprog and Fack are the model constants; zero selects 10 and 200
	// ticks (ratio 20, honoring Fprog ≪ Fack).
	Fprog, Fack sim.Time
	// Seed is the base random seed; trial t of an experiment uses
	// Seed + t.
	Seed int64
	// Trials is the number of repetitions averaged per data point; zero
	// selects 3.
	Trials int
	// Quick shrinks sweeps for use inside testing.B benchmarks.
	Quick bool
	// Check verifies model guarantees on every run (slower).
	Check bool
	// Parallelism bounds how many (sweep point, trial) simulations run
	// concurrently; zero or one selects sequential execution. Every run is
	// an independent deterministic simulation keyed by its seed and results
	// are reduced in index order, so rendered tables are byte-identical at
	// any Parallelism.
	Parallelism int
	// Shards is the worker count experiments with a sharded leg pass to
	// the decomposed executor (amacbench -shards); zero selects
	// runtime.NumCPU(). Decomposed executions are pure functions of their
	// configuration, so every measured column is identical at any value;
	// only the informational shards column (which worker count ran)
	// reflects the setting.
	Shards int
	// Sweeper overrides how RunSweep executes an experiment's spec grid:
	// nil runs in-process via scenario.SweepWithOptions; amacbench
	// -server installs a jobs client here so experiments run on an amacd
	// daemon. Executions are pure functions of (spec, seed), so rendered
	// tables are byte-identical either way. The id is the experiment's,
	// for job naming.
	Sweeper func(id string, specs []scenario.Spec, o scenario.SweepOptions) ([]*scenario.Report, error)
}

// sweep executes an experiment's spec grid at the options' parallelism
// through o.Sweeper, or in-process via scenario.SweepWithOptions when no
// Sweeper is installed.
func (o Options) sweep(id string, specs []scenario.Spec) ([]*scenario.Report, error) {
	so := scenario.SweepOptions{Parallelism: o.Parallelism}
	if o.Sweeper != nil {
		return o.Sweeper(id, specs, so)
	}
	return scenario.SweepWithOptions(specs, so)
}

func (o Options) withDefaults() Options {
	if o.Fprog == 0 {
		o.Fprog = 10
	}
	if o.Fack == 0 {
		o.Fack = 200
	}
	if o.Trials == 0 {
		o.Trials = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = 1
	}
	return o
}

// ticksStr formats a tick count.
func ticksStr(v float64) string { return fmt.Sprintf("%.0f", v) }

// ratioStr formats a measured/bound ratio.
func ratioStr(measured, bound float64) string {
	return fmt.Sprintf("%.3f", measured/bound)
}
