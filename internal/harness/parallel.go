package harness

import (
	"sync/atomic"

	"amac/internal/par"
)

// collectTrials evaluates run for every (point, trial) pair of a sweep on
// the options' worker pool and returns results[point][trial]. Each task is
// an independent deterministic simulation keyed by its seed, so the matrix
// is a pure function of (Options, run) regardless of Parallelism; callers
// must reduce it in index order to keep rendered tables byte-identical to a
// sequential run.
func collectTrials[T any](o Options, points int, run func(point int, seed int64) T) [][]T {
	out := make([][]T, points)
	for p := range out {
		out[p] = make([]T, o.Trials)
	}
	par.For(o.Parallelism, points*o.Trials, func(i int) {
		p, tr := i/o.Trials, i%o.Trials
		out[p][tr] = run(p, o.Seed+int64(tr))
	})
	return out
}

// simEvents accumulates simulation steps across all runs the harness
// performs, for machine-readable throughput reporting (cmd/amacbench).
var simEvents atomic.Uint64

// countSimEvents is called by the run helpers with each finished
// execution's step count.
func countSimEvents(steps uint64) { simEvents.Add(steps) }

// SimEvents returns the total number of simulation events processed by
// harness-driven runs since process start (or the last ResetSimEvents).
func SimEvents() uint64 { return simEvents.Load() }

// ResetSimEvents zeroes the SimEvents counter.
func ResetSimEvents() { simEvents.Store(0) }
