package jobs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"amac/internal/scenario"
	"amac/internal/topology"
)

// testJob is a small mixed job: a pinned spec (warm arena path) and an
// unpinned one (workspace path), with shard_trials 3 so both specs split
// into several shards and the unpinned spec's shard boundaries fall inside
// its trial range.
func testJob() Spec {
	return Spec{
		Name:        "test-job",
		ShardTrials: 3,
		Sweep: []scenario.Spec{
			{
				Name:      "pinned",
				Topology:  TopologySpecOf("rline", topology.Params{"n": 24, "r": 2, "p": 0.6}, 7),
				Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 3},
				Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
				Run:       scenario.RunSpec{Seed: 1, Trials: 5, Check: true},
			},
			{
				Name:      "unpinned",
				Topology:  TopologySpecOf("rgg", topology.Params{"n": 20, "side": 3.4, "c": 1.6, "p": 0.5}, 0),
				Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 2},
				Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.6}},
				Run:       scenario.RunSpec{Seed: 3, Trials: 7},
			},
		},
	}
}

// TopologySpecOf is a test shorthand.
func TopologySpecOf(name string, p topology.Params, seed int64) scenario.TopologySpec {
	return scenario.TopologySpec{Name: name, Params: p, Seed: seed}
}

func canonicalOrFatal(t *testing.T, r *Result) []byte {
	t.Helper()
	data, err := r.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardPlan pins the planner contract: shards tile each spec's trial
// range in order without spanning specs, and the plan is a pure function of
// the job.
func TestShardPlan(t *testing.T) {
	job := testJob()
	shards := Shards(job)
	offsets := scenario.SweepOffsets(job.WithDefaults().Sweep)
	next := 0
	for i, sh := range shards {
		if sh.Index != i {
			t.Fatalf("shard %d carries index %d", i, sh.Index)
		}
		if sh.Lo != next {
			t.Fatalf("shard %d starts at %d, want %d", i, sh.Lo, next)
		}
		if sh.Hi-sh.Lo > job.ShardTrials || sh.Hi <= sh.Lo {
			t.Fatalf("shard %d spans [%d, %d)", i, sh.Lo, sh.Hi)
		}
		if sh.Lo < offsets[sh.Spec] || sh.Hi > offsets[sh.Spec+1] {
			t.Fatalf("shard %d crosses spec %d's range", i, sh.Spec)
		}
		next = sh.Hi
	}
	if next != offsets[len(offsets)-1] {
		t.Fatalf("shards cover %d tasks, want %d", next, offsets[len(offsets)-1])
	}
	if !reflect.DeepEqual(shards, Shards(job)) {
		t.Fatal("shard plan not deterministic")
	}
}

// TestStoreMatchesExecute is the tentpole's byte-identity property: the
// sharded, checkpointed store produces result bytes identical to the
// single-machine reference path, across several shard sizes and
// parallelisms.
func TestStoreMatchesExecute(t *testing.T) {
	base := testJob()
	ref, err := Execute(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalOrFatal(t, ref)
	// The result must not depend on how the reference itself was
	// parallelized either.
	ref4, err := Execute(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalOrFatal(t, ref4), want) {
		t.Fatal("Execute diverges across parallelism")
	}

	for _, cfg := range []struct{ shardTrials, workers int }{
		{1, 1}, {3, 2}, {5, 3}, {100, 4},
	} {
		job := base
		job.ShardTrials = cfg.shardTrials
		s, err := Open(t.TempDir(), cfg.workers)
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		if st, ok := s.Wait(id); !ok || st.State != StateDone {
			t.Fatalf("shard_trials=%d: job ended %+v", cfg.shardTrials, st)
		}
		got, ok, err := s.Result(id)
		if !ok || err != nil {
			t.Fatalf("shard_trials=%d: result: ok=%v err=%v", cfg.shardTrials, ok, err)
		}
		// IDs differ when ShardTrials differ (it is part of the job);
		// compare the execution payload, not the identity header.
		var gr, wr Result
		if err := json.Unmarshal(got, &gr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wr); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gr.Specs, wr.Specs) {
			t.Fatalf("shard_trials=%d workers=%d: sharded result diverges from Execute", cfg.shardTrials, cfg.workers)
		}
		s.Close()
	}
}

// TestStoreResumeAfterKill is the resume property: a store killed between
// shards (simulated via the afterShard hook) and reopened over the same
// directory finishes the job without rerunning checkpointed shards, and its
// result file is byte-identical to an uninterrupted run.
func TestStoreResumeAfterKill(t *testing.T) {
	job := testJob()
	ref, err := Execute(job, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalOrFatal(t, ref)

	dir := t.TempDir()
	s1, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Kill after the second completed shard.
	killed := make(chan struct{})
	ran1 := 0
	s1.SetAfterShard(func(string, Shard) error {
		ran1++
		if ran1 == 2 {
			close(killed)
			return errAborted
		}
		return nil
	})
	id, err := s1.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	s1.Close()

	if _, err := os.Stat(filepath.Join(dir, id, "result.json")); !os.IsNotExist(err) {
		t.Fatal("killed job left a result.json")
	}

	// "Restart the daemon": a fresh store over the same directory must
	// pick the job up, replay shards 0-1 from checkpoints, and execute
	// only the rest.
	s2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ran2 := 0
	var rerun []int
	s2.SetAfterShard(func(_ string, sh Shard) error {
		ran2++
		rerun = append(rerun, sh.Index)
		return nil
	})
	st, ok := s2.Wait(id)
	if !ok || st.State != StateDone {
		t.Fatalf("resumed job ended %+v", st)
	}
	total := len(Shards(job))
	if ran2 != total-2 {
		t.Fatalf("resume executed %d shards %v, want %d (shards 0-1 were checkpointed)", ran2, rerun, total-2)
	}
	for _, idx := range rerun {
		if idx < 2 {
			t.Fatalf("resume re-executed checkpointed shard %d", idx)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, id, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed result diverges from the single-machine reference")
	}

	// A full reopen over the finished directory serves the same bytes
	// without re-execution.
	s3, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	again, ok, err := s3.Result(id)
	if !ok || err != nil {
		t.Fatalf("reopened result: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("reopened result diverges")
	}
}

// TestTornCheckpointReruns ensures a truncated shard file (daemon killed
// mid-write without the atomic rename, or disk corruption) is treated as
// absent, not fatal.
func TestTornCheckpointReruns(t *testing.T) {
	job := testJob()
	ref, err := Execute(job, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalOrFatal(t, ref)

	dir := t.TempDir()
	id, err := job.ID()
	if err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(dir, id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec, err := job.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "job.json"), append(spec, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath(jobDir, 0), []byte(`{"job":"`+id+`","index":0,"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, ok := s.Wait(id)
	if !ok || st.State != StateDone {
		t.Fatalf("job with torn checkpoint ended %+v", st)
	}
	got, _, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result after torn checkpoint diverges")
	}
}

// TestSubmitIdempotent pins content-addressed identity: resubmitting the
// same job returns the same ID without queueing new work, and a different
// job gets a different ID.
func TestSubmitIdempotent(t *testing.T) {
	s, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job := testJob()
	id1, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("identical jobs got IDs %s and %s", id1, id2)
	}
	other := job
	other.Sweep = job.Sweep[:1]
	id3, err := s.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatal("different jobs share an ID")
	}
	if len(s.Jobs()) != 2 {
		t.Fatalf("store lists %v, want 2 jobs", s.Jobs())
	}
}

// TestJobSpecRoundTrip is the job-level counterpart of the scenario
// package's Spec round-trip property test: random jobs survive
// JSON-marshal-parse exactly.
func TestJobSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randScenario := func() scenario.Spec {
		str := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
		var params topology.Params
		if rng.Intn(2) == 0 {
			params = topology.Params{"n": float64(8 + rng.Intn(32))}
		}
		return scenario.Spec{
			Name:      str("", "a", "β"),
			Topology:  scenario.TopologySpec{Name: str("line", "rgg"), Params: params, Seed: rng.Int63n(1 << 30)},
			Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: rng.Intn(8)},
			Algorithm: scenario.AlgorithmSpec{Name: str("bmmb", "fmmb")},
			Run:       scenario.RunSpec{Seed: rng.Int63n(1 << 30), Trials: rng.Intn(20)},
		}
	}
	for i := 0; i < 200; i++ {
		job := Spec{
			Name:        "job",
			Description: "round trip",
			ShardTrials: rng.Intn(40),
			Parallelism: rng.Intn(8),
			Sweep:       []scenario.Spec{randScenario()},
		}
		for extra := rng.Intn(3); extra > 0; extra-- {
			job.Sweep = append(job.Sweep, randScenario())
		}
		buf, err := job.JSON()
		if err != nil {
			t.Fatalf("job %d: marshal: %v", i, err)
		}
		back, err := Parse(buf)
		if err != nil {
			t.Fatalf("job %d: parse: %v\n%s", i, err, buf)
		}
		if !reflect.DeepEqual(job, back) {
			t.Fatalf("job %d did not round-trip:\nbefore: %+v\nafter:  %+v\njson:\n%s", i, job, back, buf)
		}
	}
}

// TestParseBareScenario pins the POST /jobs convenience: a bare scenario
// spec wraps into a one-spec job, and typos in either form still error.
func TestParseBareScenario(t *testing.T) {
	data, err := os.ReadFile("../../scenarios/quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	job, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Sweep) != 1 || job.Name != "quickstart" {
		t.Fatalf("bare scenario wrapped as %+v", job)
	}
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse([]byte(`{"sweep": [], "shard_trails": 3}`)); err == nil {
		t.Fatal("job-spec typo accepted")
	}
	if _, err := Parse([]byte(`{"topolgy": {"name": "line"}}`)); err == nil {
		t.Fatal("scenario typo accepted")
	}
}

// TestCheckedInJobFiles parses and validates every job-spec file under
// scenarios/ (the ones with a "sweep" grid; plain scenario files are
// covered by the scenario package's own test).
func TestCheckedInJobFiles(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	jobFiles := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(data, &probe); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, isJob := probe["sweep"]; !isJob {
			continue
		}
		jobFiles++
		job, err := Parse(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := job.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if job.Name == "" || job.Description == "" {
			t.Errorf("%s: checked-in jobs must carry name and description", path)
		}
	}
	if jobFiles == 0 {
		t.Fatal("no checked-in job-spec files found (expected scenarios/sweep-quickstart.json)")
	}
}

// TestReportsReconstruction pins the client-side report rebuild through the
// wire bytes: scalars, check reports, MMB violations, and every trial's
// network summary and message count round-trip exactly, for the pinned
// spec's single instance and each of the unpinned spec's draws.
func TestReportsReconstruction(t *testing.T) {
	job := testJob()
	reports, err := scenario.Sweep(job.WithDefaults().Sweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := job.ID()
	if err != nil {
		t.Fatal(err)
	}
	data, err := ResultFromReports(job, id, reports).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var wire Result
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	back := Reports(&wire)
	if len(back) != len(reports) {
		t.Fatalf("reconstructed %d reports, want %d", len(back), len(reports))
	}
	for i, rep := range reports {
		got := back[i]
		if !reflect.DeepEqual(got.Spec, rep.Spec) {
			t.Fatalf("report %d: spec diverged", i)
		}
		for ti, tr := range rep.Trials {
			gt := got.Trials[ti]
			if gt.Seed != tr.Seed || gt.SchedulerName != tr.SchedulerName {
				t.Fatalf("report %d trial %d: identity diverged", i, ti)
			}
			if gt.Network != tr.Network || gt.K != tr.K {
				t.Fatalf("report %d trial %d: network %+v k=%d, executed on %+v k=%d",
					i, ti, gt.Network, gt.K, tr.Network, tr.K)
			}
			if gt.Result.Solved != tr.Result.Solved ||
				gt.Result.CompletionTime != tr.Result.CompletionTime ||
				gt.Result.End != tr.Result.End ||
				gt.Result.Delivered != tr.Result.Delivered ||
				gt.Result.Required != tr.Result.Required ||
				gt.Result.Broadcasts != tr.Result.Broadcasts ||
				gt.Result.Steps != tr.Result.Steps {
				t.Fatalf("report %d trial %d: scalars diverged", i, ti)
			}
			if (gt.Result.Report == nil) != (tr.Result.Report == nil) {
				t.Fatalf("report %d trial %d: check report presence diverged", i, ti)
			}
			if tr.Result.Report != nil && !reflect.DeepEqual(gt.Result.Report.Violations, tr.Result.Report.Violations) {
				t.Fatalf("report %d trial %d: check violations diverged", i, ti)
			}
			if !reflect.DeepEqual(gt.Result.MMBViolations, tr.Result.MMBViolations) {
				t.Fatalf("report %d trial %d: MMB violations diverged", i, ti)
			}
		}
	}
}

// TestStatusDoneTrials pins the per-trial progress surface: at every
// afterShard checkpoint the aggregate DoneTrials equals the number of
// trials whose shards have completed, the per-shard counts sum to the
// aggregate, and a finished job reports every trial done. (The intra-shard
// partial counts come from scenario.SweepOptions.Progress, whose exactness
// is covered by the scenario package's own tests.)
func TestStatusDoneTrials(t *testing.T) {
	job := testJob()
	s, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type snapshot struct {
		shardHi int
		status  JobStatus
	}
	var snaps []snapshot
	s.SetAfterShard(func(id string, sh Shard) error {
		if st, ok := s.Status(id); ok {
			snaps = append(snaps, snapshot{sh.Hi, st})
		}
		return nil
	})

	id, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.Wait(id)
	if !ok || st.State != StateDone {
		t.Fatalf("job ended %+v", st)
	}

	total := 0
	for _, spec := range job.WithDefaults().Sweep {
		total += spec.Run.Trials
	}
	if st.TotalTrials != total || st.DoneTrials != total {
		t.Fatalf("final progress %d/%d, want %d/%d", st.DoneTrials, st.TotalTrials, total, total)
	}

	if len(snaps) == 0 {
		t.Fatal("afterShard hook observed no status")
	}
	for _, snap := range snaps {
		if snap.status.DoneTrials != snap.shardHi {
			t.Fatalf("after shard ending at %d: DoneTrials = %d", snap.shardHi, snap.status.DoneTrials)
		}
		sum := 0
		for _, shSt := range snap.status.Shards {
			if shSt.Done && shSt.DoneTrials != shSt.Hi-shSt.Lo {
				t.Fatalf("done shard [%d,%d) reports %d trials", shSt.Lo, shSt.Hi, shSt.DoneTrials)
			}
			sum += shSt.DoneTrials
		}
		if sum != snap.status.DoneTrials {
			t.Fatalf("per-shard counts sum to %d, aggregate says %d", sum, snap.status.DoneTrials)
		}
	}
}
