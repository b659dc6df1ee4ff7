package jobs

import (
	"encoding/json"
	"fmt"

	"amac/internal/check"
	"amac/internal/core"
	"amac/internal/scenario"
	"amac/internal/sim"
)

// TrialRecord is the serialized form of one executed trial: the scalar
// outcome of the simulation plus the network summary and message count a
// report consumer reads, so shards ship kilobytes, not object graphs, and
// the reading side rebuilds nothing (see Reports).
type TrialRecord struct {
	Seed          int64            `json:"seed"`
	Network       scenario.Network `json:"network"`
	K             int              `json:"k"`
	Scheduler     string           `json:"scheduler"`
	Solved        bool             `json:"solved"`
	Completion    int64            `json:"completion"`
	End           int64            `json:"end"`
	Delivered     int              `json:"delivered"`
	Required      int              `json:"required"`
	Broadcasts    int              `json:"broadcasts"`
	Steps         uint64           `json:"steps"`
	Checked       bool             `json:"checked,omitempty"`
	CheckFailures []CheckFailure   `json:"check_failures,omitempty"`
	MMBViolations []string         `json:"mmb_violations,omitempty"`
}

// CheckFailure mirrors check.Violation field-for-field so compliance
// reports survive the wire intact.
type CheckFailure struct {
	Property string `json:"property"`
	Detail   string `json:"detail"`
}

// RecordTrial projects a trial result onto its wire record.
func RecordTrial(t *scenario.TrialResult) TrialRecord {
	r := TrialRecord{
		Seed:          t.Seed,
		Network:       t.Network,
		K:             t.K,
		Scheduler:     t.SchedulerName,
		Solved:        t.Result.Solved,
		Completion:    int64(t.Result.CompletionTime),
		End:           int64(t.Result.End),
		Delivered:     t.Result.Delivered,
		Required:      t.Result.Required,
		Broadcasts:    t.Result.Broadcasts,
		Steps:         t.Result.Steps,
		MMBViolations: t.Result.MMBViolations,
	}
	if t.Result.Report != nil {
		r.Checked = true
		for _, v := range t.Result.Report.Violations {
			r.CheckFailures = append(r.CheckFailures, CheckFailure{Property: v.Property, Detail: v.Detail})
		}
	}
	return r
}

// result reconstructs the core.Result the record was projected from. The
// engine is gone — it never crosses the wire — but every scalar, the
// compliance report, and the MMB violations round-trip exactly.
func (r TrialRecord) result() *core.Result {
	res := &core.Result{
		Solved:         r.Solved,
		CompletionTime: sim.Time(r.Completion),
		End:            sim.Time(r.End),
		Delivered:      r.Delivered,
		Required:       r.Required,
		Broadcasts:     r.Broadcasts,
		Steps:          r.Steps,
		MMBViolations:  r.MMBViolations,
	}
	if r.Checked {
		rep := &check.Report{}
		for _, f := range r.CheckFailures {
			rep.Violations = append(rep.Violations, check.Violation{Property: f.Property, Detail: f.Detail})
		}
		res.Report = rep
	}
	return res
}

// SpecResult is one sweep spec's merged outcome: the resolved spec plus its
// trial records in seed order.
type SpecResult struct {
	Spec   scenario.Spec `json:"spec"`
	Trials []TrialRecord `json:"trials"`
}

// Result is a completed job: the job identity plus one SpecResult per sweep
// spec, in input order. Canonical() is the byte-identity artifact the
// resume and distribution tests pin.
type Result struct {
	ID    string       `json:"id"`
	Job   Spec         `json:"job"`
	Specs []SpecResult `json:"specs"`
}

// ResultFromReports assembles a job result from in-process sweep reports —
// the single-machine reference path the sharded daemon must match
// byte-for-byte.
func ResultFromReports(job Spec, id string, reports []*scenario.Report) *Result {
	res := &Result{ID: id, Job: job.WithDefaults()}
	for _, rep := range reports {
		sr := SpecResult{Spec: rep.Spec, Trials: make([]TrialRecord, len(rep.Trials))}
		for i, t := range rep.Trials {
			sr.Trials[i] = RecordTrial(t)
		}
		res.Specs = append(res.Specs, sr)
	}
	return res
}

// mergeShards assembles a job result from completed shard records, which
// must cover the job's full task space and be passed in shard-index order.
func mergeShards(job Spec, id string, shards []Shard, records [][]TrialRecord) (*Result, error) {
	job = job.WithDefaults()
	res := &Result{ID: id, Job: job}
	for i := range job.Sweep {
		res.Specs = append(res.Specs, SpecResult{Spec: job.Sweep[i]})
	}
	for i, sh := range shards {
		if len(records[i]) != sh.Hi-sh.Lo {
			return nil, fmt.Errorf("jobs: shard %d holds %d trials, want %d", sh.Index, len(records[i]), sh.Hi-sh.Lo)
		}
		res.Specs[sh.Spec].Trials = append(res.Specs[sh.Spec].Trials, records[i]...)
	}
	for i, sr := range res.Specs {
		if want := job.Sweep[i].Run.Trials; len(sr.Trials) != want {
			return nil, fmt.Errorf("jobs: spec %d (%s) merged %d trials, want %d", i, sr.Spec.Name, len(sr.Trials), want)
		}
	}
	return res, nil
}

// Canonical renders the result as indented JSON with a trailing newline —
// the exact bytes GET /jobs/{id}/result serves and result.json stores. The
// distribution contract is on these bytes: any shard partition, any
// parallelism, any number of daemon restarts must produce them identically.
func (r *Result) Canonical() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobs: encode result: %w", err)
	}
	return append(data, '\n'), nil
}
