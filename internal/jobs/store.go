package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"amac/internal/scenario"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// ShardStatus is one shard's progress entry in a job status.
type ShardStatus struct {
	Shard
	Done bool `json:"done"`
	// DoneTrials counts completed trials within the shard: Hi-Lo once
	// the shard's checkpoint has landed, a live count streamed from the
	// worker pool while the shard is running, 0 before it starts.
	DoneTrials int `json:"done_trials"`
}

// JobStatus is the wire form of GET /jobs/{id}.
type JobStatus struct {
	ID          string        `json:"id"`
	Name        string        `json:"name,omitempty"`
	State       JobState      `json:"state"`
	Error       string        `json:"error,omitempty"`
	TotalTrials int           `json:"total_trials"`
	DoneTrials  int           `json:"done_trials"`
	Shards      []ShardStatus `json:"shards"`
}

// Store owns a checkpoint directory and executes submitted jobs one at a
// time: shards run in plan order, each on a worker pool that reuses the
// per-worker warm state inside scenario.SweepShard, and checkpoint to disk
// as they complete. Opening a store over an existing directory resumes any
// job that has a job.json but no result.json, replaying valid shard
// checkpoints instead of rerunning them.
type Store struct {
	dir     string
	workers int

	mu   sync.Mutex
	jobs map[string]*jobEntry

	pending chan *jobEntry
	stop    chan struct{}
	loop    sync.WaitGroup

	// afterShard (Open's hook) runs after every executed (not replayed)
	// shard checkpoint lands on disk; returning an error aborts the job
	// mid-run with its partial checkpoints intact.
	afterShard func(jobID string, sh Shard) error
}

type jobEntry struct {
	job    Spec // resolved
	id     string
	shards []Shard
	state  JobState
	err    string
	done   []bool        // per shard
	finish chan struct{} // closed on done/failed
	// running/partial track per-trial progress within the shard currently
	// executing: running is its index (-1 when none) and partial the
	// number of its trials completed so far, streamed from the sweep
	// worker pool via scenario.SweepOptions.Progress.
	running int
	partial int
}

// Open creates (or reopens) a store over dir and starts its run loop.
// workers bounds in-shard parallelism for jobs that do not set their own.
// Unfinished jobs found in the directory are re-queued in ID order.
//
// afterShard, when non-nil, is invoked after every executed (not replayed)
// shard checkpoint lands on disk, resumed jobs' shards included, since it
// is in place before the run loop starts. A non-nil error abandons the job
// mid-run with its checkpoints intact, to be resumed by the next Open over
// the directory — the crash-injection point used by the resume tests and
// by amacd -exit-after-shards for the CI kill/restart smoke.
func Open(dir string, workers int, afterShard func(jobID string, sh Shard) error) (*Store, error) {
	if workers < 1 {
		workers = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	s := &Store{
		dir:        dir,
		workers:    workers,
		jobs:       make(map[string]*jobEntry),
		pending:    make(chan *jobEntry, 256),
		stop:       make(chan struct{}),
		afterShard: afterShard,
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.loop.Add(1)
	go s.run()
	return s, nil
}

// recover scans the checkpoint directory and rebuilds the job table:
// finished jobs become queryable, unfinished ones re-queue.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("jobs: scan store: %w", err)
	}
	var resume []*jobEntry
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		jobDir := filepath.Join(s.dir, ent.Name())
		data, err := os.ReadFile(filepath.Join(jobDir, "job.json"))
		if err != nil {
			continue // not a job directory
		}
		job, err := Parse(data)
		if err != nil {
			return fmt.Errorf("jobs: %s: corrupt job.json: %w", ent.Name(), err)
		}
		id, err := job.ID()
		if err != nil {
			return err
		}
		if id != ent.Name() {
			return fmt.Errorf("jobs: job directory %s holds job %s", ent.Name(), id)
		}
		e := s.newEntry(job, id)
		if _, err := os.Stat(filepath.Join(jobDir, "result.json")); err == nil {
			e.state = StateDone
			for i := range e.done {
				e.done[i] = true
			}
			close(e.finish)
		} else {
			resume = append(resume, e)
		}
		s.jobs[id] = e
	}
	sort.Slice(resume, func(i, j int) bool { return resume[i].id < resume[j].id })
	for _, e := range resume {
		s.pending <- e
	}
	return nil
}

func (s *Store) newEntry(job Spec, id string) *jobEntry {
	resolved := job.WithDefaults()
	shards := Shards(resolved)
	return &jobEntry{
		job:     resolved,
		id:      id,
		shards:  shards,
		state:   StateQueued,
		done:    make([]bool, len(shards)),
		finish:  make(chan struct{}),
		running: -1,
	}
}

// Submit validates and enqueues a job, returning its content-addressed ID.
// Resubmitting a job that is already queued, running, or done is a no-op
// returning the same ID — the result is a pure function of the spec, so
// there is nothing new to run.
func (s *Store) Submit(job Spec) (string, error) {
	if err := job.Validate(); err != nil {
		return "", err
	}
	id, err := job.ID()
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; ok {
		return id, nil
	}
	jobDir := filepath.Join(s.dir, id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		return "", fmt.Errorf("jobs: create job dir: %w", err)
	}
	spec, err := job.JSON()
	if err != nil {
		return "", err
	}
	if err := writeFileAtomic(filepath.Join(jobDir, "job.json"), append(spec, '\n')); err != nil {
		return "", fmt.Errorf("jobs: persist job spec: %w", err)
	}
	e := s.newEntry(job, id)
	s.jobs[id] = e
	select {
	case s.pending <- e:
	default:
		delete(s.jobs, id)
		return "", fmt.Errorf("jobs: queue full")
	}
	return id, nil
}

// run is the store's single execution loop: jobs run one at a time so a
// host's worker pool serves one job's shards at full parallelism instead of
// thrashing between jobs.
func (s *Store) run() {
	defer s.loop.Done()
	for {
		select {
		case <-s.stop:
			return
		case e := <-s.pending:
			s.mu.Lock()
			e.state = StateRunning
			s.mu.Unlock()
			err := s.runJob(e)
			s.mu.Lock()
			switch {
			case err == errAborted:
				// Test-hook kill: leave the entry running; the "restart"
				// is a fresh Open over the same directory.
			case err != nil:
				e.state, e.err = StateFailed, err.Error()
				close(e.finish)
			default:
				e.state = StateDone
				close(e.finish)
			}
			s.mu.Unlock()
		}
	}
}

// errAborted is the afterShard hook's kill signal.
var errAborted = fmt.Errorf("jobs: aborted by afterShard hook")

// runJob executes the job's shards in plan order, replaying valid
// checkpoints, then merges and persists the result.
func (s *Store) runJob(e *jobEntry) error {
	jobDir := filepath.Join(s.dir, e.id)
	par := e.job.Parallelism
	if par == 0 {
		par = s.workers
	}
	records := make([][]TrialRecord, len(e.shards))
	for i, sh := range e.shards {
		replayed, err := readShard(jobDir, e.id, sh)
		if err != nil {
			return err
		}
		if replayed != nil {
			records[i] = replayed
			s.markDone(e, i)
			continue
		}
		s.mu.Lock()
		e.running, e.partial = i, 0
		s.mu.Unlock()
		trials, err := scenario.SweepShard(e.job.Sweep, sh.Lo, sh.Hi, scenario.SweepOptions{
			Parallelism: par,
			Progress: func(done int) {
				s.mu.Lock()
				if e.running == i && done > e.partial {
					e.partial = done
				}
				s.mu.Unlock()
			},
		})
		if err != nil {
			return fmt.Errorf("jobs: shard %d [%d, %d): %w", sh.Index, sh.Lo, sh.Hi, err)
		}
		recs := make([]TrialRecord, len(trials))
		for t, tr := range trials {
			recs[t] = RecordTrial(tr)
		}
		if err := writeShard(jobDir, e.id, sh, recs); err != nil {
			return err
		}
		records[i] = recs
		s.markDone(e, i)
		if s.afterShard != nil {
			if err := s.afterShard(e.id, sh); err != nil {
				return errAborted
			}
		}
	}
	res, err := mergeShards(e.job, e.id, e.shards, records)
	if err != nil {
		return err
	}
	data, err := res.Canonical()
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(jobDir, "result.json"), data)
}

func (s *Store) markDone(e *jobEntry, shard int) {
	s.mu.Lock()
	e.done[shard] = true
	if e.running == shard {
		e.running, e.partial = -1, 0
	}
	s.mu.Unlock()
}

// Status returns the job's progress, or false when the ID is unknown.
func (s *Store) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	st := JobStatus{ID: e.id, Name: e.job.Name, State: e.state, Error: e.err}
	for i, sh := range e.shards {
		st.TotalTrials += sh.Hi - sh.Lo
		dt := 0
		switch {
		case e.done[i]:
			dt = sh.Hi - sh.Lo
		case e.running == i:
			dt = e.partial
		}
		st.DoneTrials += dt
		st.Shards = append(st.Shards, ShardStatus{Shard: sh, Done: e.done[i], DoneTrials: dt})
	}
	return st, true
}

// Result returns the canonical result bytes of a finished job. ok reports
// whether the job exists; err is non-nil when it exists but has no result
// yet (still running) or failed.
func (s *Store) Result(id string) (data []byte, ok bool, err error) {
	s.mu.Lock()
	e, exists := s.jobs[id]
	var state JobState
	var jobErr string
	if exists {
		state, jobErr = e.state, e.err
	}
	s.mu.Unlock()
	if !exists {
		return nil, false, nil
	}
	switch state {
	case StateDone:
		data, err := os.ReadFile(filepath.Join(s.dir, id, "result.json"))
		if err != nil {
			return nil, true, fmt.Errorf("jobs: read result: %w", err)
		}
		return data, true, nil
	case StateFailed:
		return nil, true, fmt.Errorf("jobs: job failed: %s", jobErr)
	default:
		return nil, true, fmt.Errorf("jobs: job is %s", state)
	}
}

// Wait blocks until the job finishes (done or failed), returning its final
// status; ok is false for unknown IDs.
func (s *Store) Wait(id string) (JobStatus, bool) {
	s.mu.Lock()
	e, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	<-e.finish
	return s.Status(id)
}

// Delete removes a finished or failed job and its checkpoint directory.
// Running or queued jobs are refused: the run loop owns their directory.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: unknown job %s", id)
	}
	if e.state == StateQueued || e.state == StateRunning {
		return fmt.Errorf("jobs: job %s is %s; wait for it to finish", id, e.state)
	}
	if err := os.RemoveAll(filepath.Join(s.dir, id)); err != nil {
		return fmt.Errorf("jobs: delete job: %w", err)
	}
	delete(s.jobs, id)
	return nil
}

// Jobs lists known job IDs in sorted order.
func (s *Store) Jobs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Close stops the run loop after the current shard's job finishes its
// in-flight work. It does not wait for queued jobs; their checkpoints
// resume on the next Open.
func (s *Store) Close() {
	close(s.stop)
	s.loop.Wait()
}
