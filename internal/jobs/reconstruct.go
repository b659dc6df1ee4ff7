package jobs

import "amac/internal/scenario"

// Execute runs the job in-process on a single machine — no shards, no
// checkpoints — and returns its result. This is the reference the sharded
// daemon is held to: for any job, Store/amacd must produce Canonical()
// bytes identical to Execute's.
func Execute(job Spec, parallelism int) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	id, err := job.ID()
	if err != nil {
		return nil, err
	}
	reports, err := scenario.SweepWithOptions(job.Sweep, scenario.SweepOptions{Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	return ResultFromReports(job, id, reports), nil
}

// Reports reconstructs per-spec scenario reports from a wire result, so
// report consumers (amacsim's renderer, harness bound formulas) work
// identically on remote results. Each trial record carries its network
// summary and message count, so nothing is rebuilt here; only the engine
// and the trace stay on the executing side.
func Reports(res *Result) []*scenario.Report {
	out := make([]*scenario.Report, len(res.Specs))
	for i, sr := range res.Specs {
		rep := &scenario.Report{Spec: sr.Spec, Trials: make([]*scenario.TrialResult, len(sr.Trials))}
		for t, rec := range sr.Trials {
			rep.Trials[t] = &scenario.TrialResult{
				Seed:          rec.Seed,
				Network:       rec.Network,
				K:             rec.K,
				SchedulerName: rec.Scheduler,
				Result:        rec.result(),
			}
		}
		out[i] = rep
	}
	return out
}
