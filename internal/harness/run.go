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

// mustSweep runs an experiment's spec grid through sweep, panicking on a
// spec error, and holds every trial to mustSucceed.
func (o Options) mustSweep(id string, specs []scenario.Spec) []*scenario.Report {
	reports, err := o.sweep(id, specs)
	if err != nil {
		panic(fmt.Sprintf("harness: %s: %v", id, err))
	}
	for _, r := range reports {
		for _, tr := range r.Trials {
			mustSucceed(id, r.Spec.Algorithm.Name, tr)
		}
	}
	return reports
}

// mustSucceed counts a trial's sim events and keeps the harness's fail-fast
// contract on it: experiments are calibrated so every run solves its
// instance cleanly, so an unsolved run, a model violation or an MMB
// violation (a duplicate or unsolicited deliver, which the runner records
// even with checking off) panics, naming the experiment, algorithm,
// network and seed.
func mustSucceed(id, alg string, tr *scenario.TrialResult) {
	countSimEvents(tr.Result.Steps)
	switch res := tr.Result; {
	case !res.Solved:
		panic(fmt.Sprintf("harness: %s: %s failed on %s seed %d (%d/%d delivered by %v)",
			id, alg, tr.Network.Name, tr.Seed, res.Delivered, res.Required, res.End))
	case res.Report != nil && !res.Report.OK():
		panic(fmt.Sprintf("harness: %s: %s model violation on %s seed %d: %v",
			id, alg, tr.Network.Name, tr.Seed, res.Report.Violations[0]))
	case len(res.MMBViolations) > 0:
		panic(fmt.Sprintf("harness: %s: %s MMB violation on %s seed %d: %s",
			id, alg, tr.Network.Name, tr.Seed, res.MMBViolations[0]))
	}
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
