package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/par"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// TrialResult is one executed seed of a scenario. Every field but Result
// is a plain value.
type TrialResult struct {
	// Seed is the run seed of this trial.
	Seed int64
	// Network summarizes the network instance the trial ran on
	// (randomized families draw a fresh instance per trial unless the spec
	// pins the topology seed).
	Network Network
	// K is the number of messages the trial's workload injected.
	K int
	// SchedulerName is the resolved scheduler's self-description.
	SchedulerName string
	// Result is the execution outcome. Its scalar fields and Report are
	// always safe; its Engine and Trace belong to the runner of the worker
	// that ran the trial and are valid until that runner's next Run (see
	// core.Result.Engine), so with Trials == 1 they stay valid. Decomposed
	// runs (shards >= 1 on a multi-component network) leave Engine nil and
	// return a freshly merged Trace the caller owns.
	Result *core.Result
}

// Network summarizes a trial's network instance in the quantities the
// paper's bounds are stated in. It is filled before the worker that ran the
// trial reuses its storage, so it stays valid indefinitely and crosses the
// wire as is (see internal/jobs).
type Network struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// Edges is |E|, the reliable edges.
	Edges int `json:"edges"`
	// Unreliable is |E′\E|, the edges only G′ has.
	Unreliable int `json:"unreliable"`
	// Diameter is G's sampled diameter, the one every run and report
	// shares: exact up to graph.ExactDiameterCutoff nodes, a lower bound
	// above it.
	Diameter int `json:"diameter"`
}

// summarize computes the network summary of an instance. The diameter is
// memoized on the graph, where the default horizon or FMMB's schedule has
// usually put it already.
func summarize(d *topology.Dual) Network {
	return Network{
		Name:       d.Name,
		N:          d.N(),
		Edges:      d.G.M(),
		Unreliable: d.GPrime.M() - d.G.M(),
		Diameter:   d.G.SampledDiameter(),
	}
}

// Report is the outcome of Run: the resolved spec plus one result per trial,
// in seed order. All aggregate accessors reduce in that order, so reports
// are byte-stable at any parallelism.
type Report struct {
	Spec   Spec
	Trials []*TrialResult
}

// Solved counts solved trials.
func (r *Report) Solved() int {
	n := 0
	for _, t := range r.Trials {
		if t.Result.Solved {
			n++
		}
	}
	return n
}

// MeanCompletion averages completion time over the solved trials (0 when
// none solved).
func (r *Report) MeanCompletion() float64 {
	sum, n := 0.0, 0
	for _, t := range r.Trials {
		if t.Result.Solved {
			sum += float64(t.Result.CompletionTime)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WorstCompletion returns the maximum completion time over solved trials.
func (r *Report) WorstCompletion() float64 {
	worst := 0.0
	for _, t := range r.Trials {
		if t.Result.Solved && float64(t.Result.CompletionTime) > worst {
			worst = float64(t.Result.CompletionTime)
		}
	}
	return worst
}

// Steps totals simulation events across all trials.
func (r *Report) Steps() uint64 {
	var s uint64
	for _, t := range r.Trials {
		s += t.Result.Steps
	}
	return s
}

// Run validates the spec and executes its trials on a worker pool of
// Run.Parallelism, returning per-trial results in seed order. Every trial is
// an independent deterministic simulation keyed by its seed, so the report
// is a pure function of the spec at any parallelism. Run is a one-spec
// sweep: its trials go through the same warm per-worker executor (see
// specRun).
func Run(s Spec) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reports, err := SweepWithOptions([]Spec{s}, SweepOptions{Parallelism: s.WithDefaults().Run.Parallelism})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// SweepOptions parameterizes Sweep beyond the spec grid itself.
type SweepOptions struct {
	// Parallelism bounds concurrent (spec, trial) simulations; 0 or 1 runs
	// sequentially. Reports are byte-identical at any value.
	Parallelism int
	// Progress, when set, is called after each completed trial with the
	// cumulative number of trials finished so far in this call (1..total).
	// Trials complete on a worker pool, so the callback must be safe for
	// concurrent use; counts are assigned atomically and each value in
	// 1..total is delivered exactly once, though not necessarily in
	// order. Purely observational — results are identical with or
	// without it.
	Progress func(done int)
}

// Sweep executes a grid of specs, flattening every (spec, trial) pair onto
// one worker pool of the given parallelism, and returns one report per spec
// in input order. Each spec's own Run.Parallelism is ignored; everything
// else (seeds, trials) applies per spec.
func Sweep(specs []Spec, parallelism int) ([]*Report, error) {
	return SweepWithOptions(specs, SweepOptions{Parallelism: parallelism})
}

// SweepOffsets returns the flattened task-space offsets of a sweep: tasks
// [offsets[i], offsets[i+1]) are spec i's trials in seed order, and
// offsets[len(specs)] is the total task count. Task t of spec i runs with
// seed Run.Seed + (t - offsets[i]). This is the coordinate system SweepShard
// partitions, and shard planners derive their shard boundaries from it.
func SweepOffsets(specs []Spec) []int {
	offsets := make([]int, len(specs)+1)
	for i, s := range specs {
		offsets[i+1] = offsets[i] + s.WithDefaults().Run.Trials
	}
	return offsets
}

// SweepWithOptions is Sweep with explicit options. Trials of each spec share
// warm state per (spec, worker) pair — pool-local state that no two
// goroutines touch concurrently (see specRun) — so repeated trials skip
// fleet construction and engine allocation while the parallel reduction
// stays byte-identical.
func SweepWithOptions(specs []Spec, o SweepOptions) ([]*Report, error) {
	p, err := newSweepPlan(specs, o, 0, -1)
	if err != nil {
		return nil, err
	}
	total := p.offsets[len(specs)]
	trials, err := p.run(o.Parallelism, 0, total)
	if err != nil {
		return nil, err
	}
	out := make([]*Report, len(specs))
	for i := range specs {
		out[i] = &Report{Spec: p.resolved[i], Trials: trials[p.offsets[i]:p.offsets[i+1]]}
	}
	return out, nil
}

// SweepShard executes tasks [lo, hi) of the sweep's flattened (spec, trial)
// task space — the SweepOffsets coordinate system — and returns their
// results in task order. Every task is a pure function of its (spec, seed),
// and the warm per-worker state a shard builds is byte-identical to the
// state a whole-sweep run would use, so concatenating the results of any
// partition of [0, total) in index order reproduces SweepWithOptions over
// the same specs exactly. This is the distribution primitive behind
// internal/jobs: shards run on different processes (or machines) and merge
// back byte-identically.
func SweepShard(specs []Spec, lo, hi int, o SweepOptions) ([]*TrialResult, error) {
	p, err := newSweepPlan(specs, o, lo, hi)
	if err != nil {
		return nil, err
	}
	return p.run(o.Parallelism, lo, hi)
}

// sweepPlan is the resolved execution plan of a sweep: every spec validated
// and resolved, the flattened task-space offsets, and — for the task range
// the caller will run — one warm trial executor per spec. It is the single
// sweep pipeline behind Run, SweepWithOptions (which run the full task
// space) and SweepShard (which runs a slice of it), so they cannot diverge.
type sweepPlan struct {
	resolved []Spec
	offsets  []int
	runs     []*specRun
	progress func(done int)
}

// newSweepPlan validates and resolves the specs and prepares executors for
// the specs whose trials intersect [lo, hi); hi < 0 selects the full task
// space. Pinned topologies and warm state are only built for intersecting
// specs, so a narrow shard of a wide grid pays for its own slice only.
func newSweepPlan(specs []Spec, o SweepOptions, lo, hi int) (*sweepPlan, error) {
	p := &sweepPlan{
		resolved: make([]Spec, len(specs)),
		offsets:  make([]int, len(specs)+1),
		runs:     make([]*specRun, len(specs)),
		progress: o.Progress,
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: spec %d (%s): %w", i, s.Name, err)
		}
		p.resolved[i] = s.WithDefaults()
		p.offsets[i+1] = p.offsets[i] + p.resolved[i].Run.Trials
	}
	total := p.offsets[len(specs)]
	if hi < 0 {
		hi = total
	}
	if lo < 0 || hi > total || lo > hi {
		return nil, fmt.Errorf("scenario: shard [%d, %d) outside the sweep's task space [0, %d)", lo, hi, total)
	}
	workers := par.Workers(o.Parallelism, hi-lo)
	for i := range specs {
		if p.offsets[i+1] <= lo || p.offsets[i] >= hi {
			continue
		}
		run, err := newSpecRun(p.resolved[i], workers)
		if err != nil {
			return nil, fmt.Errorf("scenario: spec %d (%s): %w", i, specs[i].Name, err)
		}
		p.runs[i] = run
	}
	return p, nil
}

// run executes tasks [lo, hi) on a pool of the given parallelism and
// returns their results in task order. Trial seeds are derived from the
// global task index, never the shard-local one, so shard boundaries cannot
// shift an execution.
func (p *sweepPlan) run(parallelism, lo, hi int) ([]*TrialResult, error) {
	trials := make([]*TrialResult, hi-lo)
	errs := make([]error, hi-lo)
	var completed atomic.Int64
	par.ForWorker(parallelism, hi-lo, func(worker, i int) {
		task := lo + i
		// Binary search is overkill: sweeps are small, scan.
		si := 0
		for p.offsets[si+1] <= task {
			si++
		}
		seed := p.resolved[si].Run.Seed + int64(task-p.offsets[si])
		trials[i], errs[i] = p.runs[si].trial(seed, worker)
		if errs[i] != nil {
			errs[i] = fmt.Errorf("trial with seed %d: %w", seed, errs[i])
		} else if p.progress != nil {
			p.progress(int(completed.Add(1)))
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario: sweep task %d: %w", lo+i, err)
		}
	}
	return trials, nil
}

// specRun is the warm trial executor of one resolved spec, shared by every
// entry point: Run and the sweeps hold one per spec, and one-shot trials
// run on a fresh one-worker specRun. A pinned spec (every trial on one
// network) resolves its plan once, and each worker builds its own runner on
// that network; plan is nil for an unpinned spec, whose workers draw each
// trial's network into their own workspace and rebind their own runner.
// Either way the execution is a pure function of (spec, seed) — the worker
// index only selects which pooled storage backs it — so results are
// byte-identical to fresh one-shot trials at any parallelism.
type specRun struct {
	spec Spec // resolved
	plan *trialPlan
	// workers is indexed by the pool's worker slot.
	workers []worker
}

// worker is one pool slot's warm state, reused trial after trial: the
// runner (arena, pooled engine), the cached scheduler, the fleet its last
// trial retired and — for unpinned specs — the workspace draws build into
// and the interned trial plan (see planFor). Everything is created lazily
// on the worker's first trial. Every registered topology family takes its
// node count from its params alone, so one parked fleet and one plan cover
// every draw of a spec.
type worker struct {
	ws    *topology.Workspace
	rn    *core.Runner
	sched schedSlot
	fleet []mac.Automaton
	plan  *trialPlan
}

// schedSlot is a worker's cached scheduler together with its rendered
// self-description: Reset + Attach reuses the same instance trial after
// trial, so the name — a fmt.Sprintf per render — is computed once when the
// scheduler is built instead of once per trial.
type schedSlot struct {
	s    mac.Scheduler
	name string
}

// newSpecRun prepares the executor of a resolved spec for a pool of the
// given size; a pinned topology is built once here, from the run's base
// seed.
func newSpecRun(r Spec, workers int) (*specRun, error) {
	sr := &specRun{spec: r, workers: make([]worker, workers)}
	if !topologyPinned(r) {
		return sr, nil
	}
	built, err := buildTopology(r, r.Run.Seed)
	if err == nil {
		err = sr.pin(built)
	}
	if err != nil {
		return nil, err
	}
	return sr, nil
}

// pin resolves the spec once against the network every trial runs on (the
// same resolution a fresh trial performs).
func (sr *specRun) pin(built *topology.Built) error {
	p, err := resolvePlan(sr.spec, built)
	if err != nil {
		return err
	}
	sr.plan = p
	return nil
}

// trial executes one seed on the given worker's warm state.
func (sr *specRun) trial(seed int64, worker int) (*TrialResult, error) {
	w := &sr.workers[worker]
	p := sr.plan
	if p == nil {
		var err error
		if p, err = w.draw(sr.spec, seed); err != nil {
			return nil, err
		}
	} else if w.rn == nil {
		w.rn = core.NewRunner(p.built.Dual)
	}
	return p.execute(seed, w)
}

// draw builds trial seed's network into the worker's workspace, rebinds the
// worker's runner to it and returns its plan. Builds are byte-identical
// with and without the workspace, and a rebound runner is byte-identical to
// a fresh one.
func (w *worker) draw(r Spec, seed int64) (*trialPlan, error) {
	if w.ws == nil {
		w.ws = topology.NewWorkspace()
	}
	built, err := buildTopologyInto(r, seed, w.ws)
	if err != nil {
		return nil, err
	}
	if w.rn == nil {
		w.rn = core.NewRunner(built.Dual)
	} else {
		w.rn.Rebind(built.Dual)
	}
	return w.planFor(r, built)
}

// planFor returns the worker's interned trial plan rebound to the fresh
// instance when it was resolved for the draw's node count, or resolves and
// interns a new one. Interning is sound because every plan field other than
// the instance and the horizon depends only on (spec, n): singleton origin
// placement is a function of n and K, single-source and explicit workloads
// only bounds-check nodes against n, and the poisson stream is keyed by the
// spec-level workload seed, which is constant across trials. Construction
// workloads read the drawn artifact and are never interned — they only
// arise on deterministic families, which are pinned anyway.
func (w *worker) planFor(r Spec, built *topology.Built) (*trialPlan, error) {
	if r.Workload.Kind == WorkloadConstruction {
		return resolvePlan(r, built)
	}
	if p := w.plan; p != nil && p.n == built.Dual.N() {
		p.rebind(built)
		return p, nil
	}
	p, err := resolvePlan(r, built)
	if err != nil {
		return nil, err
	}
	w.plan = p
	return p, nil
}

// fleetFor returns a fleet for the plan's draw: the worker's parked fleet,
// refitted and reset, when it has the draw's node count and the algorithm
// can Refit it (when it registers a Refit at all), or a freshly built one.
// The parked fleet is taken either way, so a failing trial never parks it
// again.
func (w *worker) fleetFor(p *trialPlan) ([]mac.Automaton, error) {
	fleet := w.fleet
	w.fleet = nil
	if len(fleet) == p.n &&
		(p.alg.Refit == nil || p.alg.Refit(fleet, p.built.Dual, p.k, p.spec.Algorithm.Params)) {
		for _, a := range fleet {
			a.(mac.Resettable).Reset()
		}
		return fleet, nil
	}
	return p.newFleet()
}

// park keeps a retired fleet for the worker's next trial. Only fleets whose
// automata all implement mac.Resettable are kept: reusing any other would
// leak one trial's state into the next.
func (w *worker) park(fleet []mac.Automaton) {
	for _, a := range fleet {
		if _, ok := a.(mac.Resettable); !ok {
			return
		}
	}
	w.fleet = fleet
}

// Trial executes one seed of the scenario: build the topology (seeded per
// trial unless pinned), resolve the workload, instantiate a fresh fleet,
// scheduler and runner, and run. Nothing is shared with any other trial, so
// the result stays valid indefinitely. It does not re-validate; Run and
// Sweep do, and direct callers get build-time errors for anything
// malformed.
func Trial(s Spec, seed int64) (*TrialResult, error) {
	built, err := buildTopology(s.WithDefaults(), seed)
	if err != nil {
		return nil, err
	}
	return trialOn(s, seed, built)
}

// BuildTopology constructs the network instance that trial `seed` of the
// spec would run on. Callers replaying one pinned instance across many
// hand-rolled trials build it once here and pass it to TrialOn; Run and
// Sweep already do this automatically for pinned topologies. Callers that
// need a trial's instance itself, not its summary, build it here too: the
// adversarial example reads its construction artifact, and perfbench's
// layer-by-layer replay rebuilds each trial's network.
func BuildTopology(s Spec, seed int64) (*topology.Built, error) {
	return buildTopology(s.WithDefaults(), seed)
}

// TrialOn executes one seed of the scenario on an already-built network
// instance (see BuildTopology) with a fresh fleet, scheduler and runner.
// The instance is treated as read-only.
func TrialOn(s Spec, seed int64, built *topology.Built) (*TrialResult, error) {
	return trialOn(s, seed, built)
}

// ResolveWorkload resolves the spec's workload against a built instance —
// the same resolution every trial performs. The result depends only on the
// spec and the instance, never on the trial seed, so perfbench's replay,
// which drives the runner itself, injects the exact workload a trial ran.
func ResolveWorkload(s Spec, built *topology.Built) (*core.Workload, error) {
	assignment, workload, err := buildWorkload(s.WithDefaults(), built)
	if err != nil {
		return nil, err
	}
	if workload == nil {
		workload = core.FromAssignment(assignment)
	}
	return workload, nil
}

// TopologyPinned reports whether every trial of the spec runs on the same
// network instance (built once from the run's base seed), as opposed to a
// fresh draw per trial seed. Exported for perfbench's replay, which builds
// a pinned spec's instance once and an unpinned spec's per trial seed.
func TopologyPinned(s Spec) bool {
	return topologyPinned(s.WithDefaults())
}

// buildTopology constructs the trial's network instance.
func buildTopology(r Spec, seed int64) (*topology.Built, error) {
	return buildTopologyInto(r, seed, nil)
}

// buildTopologyInto constructs the trial's network instance into ws scratch
// (nil allocates fresh). The derived topology seed is threaded to the
// builder as an exact int64 — never through the float64 parameter map,
// which is lossy above 2^53 and used to silently collide large trial seeds
// onto one network. An explicit "seed" parameter still pins the family's
// stream, as always.
func buildTopologyInto(r Spec, seed int64, ws *topology.Workspace) (*topology.Built, error) {
	topoSeed := r.Topology.Seed
	if topoSeed == 0 {
		topoSeed = seed * r.Topology.SeedFactor
	}
	return topology.BuildInto(r.Topology.Name, r.Topology.Params, topoSeed, ws)
}

// topologyPinned reports whether every trial of the spec sees the same
// network instance, letting Run and Sweep build it once. Families
// registered as deterministic (ring, line, grid, ... — builders that
// ignore the seed) are pinned regardless of seeding: rebuilding them per
// trial would construct an identical network every time and forfeit the
// warm arena path.
func topologyPinned(r Spec) bool {
	return topology.Deterministic(r.Topology.Name) ||
		r.Topology.Seed != 0 || r.Topology.Params.Has("seed")
}

// trialOn executes one seed of the scenario on an already-built network, on
// a fresh one-worker executor pinned to that instance. Nothing else shares
// the executor's state, so the result stays valid indefinitely.
func trialOn(s Spec, seed int64, built *topology.Built) (*TrialResult, error) {
	// A caller-built instance gets the error core.Run would return for an
	// invalid dual, before anything reads the network; the runner it
	// validates is the worker's, so the run does not check it again.
	rn, err := core.NewRunnerChecked(built.Dual)
	if err != nil {
		return nil, err
	}
	sr := &specRun{spec: s.WithDefaults(), workers: []worker{{rn: rn}}}
	if err := sr.pin(built); err != nil {
		return nil, err
	}
	return sr.trial(seed, 0)
}

// trialPlan is everything about a trial that is a pure function of the
// resolved spec and its built network: the workload, payloads, algorithm,
// horizon, step limit and network summary. It is the single
// spec-resolution pipeline behind every trial: a pinned specRun resolves
// one per spec, an unpinned one interns one per worker.
type trialPlan struct {
	spec      Spec // resolved
	built     *topology.Built
	net       Network
	n         int // node count the plan was resolved for
	workload  *core.Workload
	payloads  []sim.Payload
	alg       core.Algorithm
	schedName string
	horizon   sim.Time
	stepLimit uint64
	k         int
}

// resolvePlan resolves the trial-invariant parts of a spec against its
// built topology.
func resolvePlan(r Spec, built *topology.Built) (*trialPlan, error) {
	assignment, workload, err := buildWorkload(r, built)
	if err != nil {
		return nil, err
	}
	if workload == nil {
		workload = core.FromAssignment(assignment)
	}
	k := workload.K()
	alg, ok := core.LookupAlgorithm(r.Algorithm.Name)
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (registered: %v)",
			r.Algorithm.Name, core.AlgorithmNames())
	}
	schedName := r.Scheduler.Name
	if schedName == "" {
		schedName = alg.DefaultScheduler
	}
	payloads := make([]sim.Payload, 0, k)
	for _, ar := range workload.Arrivals() {
		payloads = append(payloads, ar.Msg.Payload())
	}
	horizon := sim.Time(r.Run.Horizon)
	if horizon == 0 && alg.Horizon != nil {
		horizon = alg.Horizon(built.Dual, k, sim.Time(r.Model.Fprog), r.Algorithm.Params)
	}
	stepLimit := r.Run.StepLimit
	if stepLimit == 0 {
		stepLimit = alg.StepLimit
	}
	return &trialPlan{
		spec:      r,
		built:     built,
		net:       summarize(built.Dual),
		n:         built.Dual.N(),
		workload:  workload,
		payloads:  payloads,
		alg:       alg,
		schedName: schedName,
		horizon:   horizon,
		stepLimit: stepLimit,
		k:         k,
	}, nil
}

// newFleet builds a fresh fleet for the plan.
func (p *trialPlan) newFleet() ([]mac.Automaton, error) {
	return p.alg.NewFleet(p.built.Dual, p.k, p.spec.Algorithm.Params)
}

// rebind points an interned plan at a fresh draw of the same node count,
// recomputing the instance-dependent fields: the network summary and the
// horizon, whose registered formula may read instance invariants like the
// diameter. The result is field-for-field identical to resolvePlan(spec,
// built), which TestInternedPlanMatchesResolved pins.
func (p *trialPlan) rebind(built *topology.Built) {
	p.built = built
	p.net = summarize(built.Dual)
	horizon := sim.Time(p.spec.Run.Horizon)
	if horizon == 0 && p.alg.Horizon != nil {
		horizon = p.alg.Horizon(built.Dual, p.k, sim.Time(p.spec.Model.Fprog), p.spec.Algorithm.Params)
	}
	p.horizon = horizon
}

// scheduler returns the trial's scheduler: the slot's cached one re-armed
// via sched.Resettable when compatible, or a fresh build stored back into
// the slot for the worker's next trial. Reset + Attach is observably
// identical to a fresh build + Attach, so the cache never changes
// executions.
func (p *trialPlan) scheduler(env sched.Env, slot *schedSlot) (mac.Scheduler, string, error) {
	if rs, ok := slot.s.(sched.Resettable); ok && rs.Reset(env) {
		return slot.s, slot.name, nil
	}
	s, err := sched.Build(p.schedName, env, p.spec.Scheduler.Params)
	if err != nil {
		return nil, "", err
	}
	slot.s, slot.name = s, s.Name()
	return s, slot.name, nil
}

// execute runs one seed of the plan on the worker's runner, with a fleet
// from fleetFor and the scheduler from its slot, and parks the fleet again
// afterwards.
func (p *trialPlan) execute(seed int64, w *worker) (*TrialResult, error) {
	r := p.spec
	env := sched.Env{
		Dual:     p.built.Dual,
		Artifact: p.built.Artifact,
		Payloads: p.payloads,
		Fprog:    sim.Time(r.Model.Fprog),
		Fack:     sim.Time(r.Model.Fack),
	}
	scheduler, schedName, err := p.scheduler(env, &w.sched)
	if err != nil {
		return nil, err
	}
	mode, err := r.Run.TraceMode()
	if err != nil {
		return nil, err
	}
	automata, err := w.fleetFor(p)
	if err != nil {
		return nil, err
	}
	cfg := core.RunConfig{
		Dual:             p.built.Dual,
		Fack:             sim.Time(r.Model.Fack),
		Fprog:            sim.Time(r.Model.Fprog),
		Scheduler:        scheduler,
		Mode:             p.alg.Mode,
		Seed:             seed,
		Workload:         p.workload,
		Automata:         automata,
		Horizon:          p.horizon,
		StepLimit:        p.stepLimit,
		HaltOnCompletion: !r.Run.ToQuiescence,
		Options: core.RunOptions{
			Trace:  mode,
			Check:  r.Run.Check,
			Shards: r.Run.Shards,
		},
		EpsAbort: sim.Time(r.Model.EpsAbort),
	}
	if r.Run.Shards >= 1 {
		// Each shard engine needs its own scheduler instance; rebuilding
		// with the environment that just built the main scheduler cannot
		// fail differently, so an error here is a registry bug.
		params := r.Scheduler.Params
		name := p.schedName
		cfg.NewScheduler = func() mac.Scheduler {
			s, err := sched.Build(name, env, params)
			if err != nil {
				panic(fmt.Sprintf("scenario: shard scheduler rebuild: %v", err))
			}
			return s
		}
	}
	var tw *sim.TraceWriter
	var tf *os.File
	if r.Run.TraceFile != "" {
		path := TraceFilePath(r.Run.TraceFile, seed)
		tf, err = os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("scenario: trace file: %w", err)
		}
		tw = sim.NewTraceWriter(tf)
		cfg.Options.Sink = tw
	}
	res, err := w.rn.Run(cfg)
	if tw != nil {
		ferr := tw.Flush()
		if cerr := tf.Close(); ferr == nil {
			ferr = cerr
		}
		if err == nil && ferr != nil {
			err = fmt.Errorf("scenario: trace file %s: %w", tf.Name(), ferr)
		}
	}
	if err != nil {
		return nil, err
	}
	w.park(automata)
	return &TrialResult{
		Seed:          seed,
		Network:       p.net,
		K:             p.k,
		SchedulerName: schedName,
		Result:        res,
	}, nil
}

// TraceFilePath derives the per-trial trace stream path from a spec's
// trace_file: the trial seed is spliced in before the extension
// ("out.amtr" with seed 3 -> "out.s3.amtr"), so multi-trial runs and
// parallel workers never share a file. Exported so consumers locate the
// files a run produced.
func TraceFilePath(pattern string, seed int64) string {
	ext := filepath.Ext(pattern)
	return fmt.Sprintf("%s.s%d%s", strings.TrimSuffix(pattern, ext), seed, ext)
}

// buildWorkload resolves the workload spec against the built topology. It
// returns either an assignment (time-zero workloads) or a timed workload.
func buildWorkload(r Spec, built *topology.Built) (core.Assignment, *core.Workload, error) {
	n := built.Dual.N()
	w := r.Workload
	switch w.Kind {
	case WorkloadSingleton:
		origins := make([]graph.NodeID, 0, len(w.Origins))
		if len(w.Origins) > 0 {
			for i, o := range w.Origins {
				if o < 0 || o >= n {
					return nil, nil, fmt.Errorf("scenario: workload: origin %d (index %d) outside [0,%d)", o, i, n)
				}
				origins = append(origins, graph.NodeID(o))
			}
		} else {
			for i := 0; i < w.K; i++ {
				origins = append(origins, graph.NodeID(i*n/w.K))
			}
		}
		return core.Singleton(n, origins), nil, nil
	case WorkloadSingleSource:
		if w.Origin >= n {
			return nil, nil, fmt.Errorf("scenario: workload: origin %d outside [0,%d)", w.Origin, n)
		}
		return core.SingleSource(n, graph.NodeID(w.Origin), w.K), nil, nil
	case WorkloadPoisson:
		wseed := w.Seed
		if wseed == 0 {
			wseed = r.Run.Seed
		}
		return nil, core.PoissonWorkload(n, w.K, sim.Time(w.Span), wseed), nil
	case WorkloadExplicit:
		wl := &core.Workload{}
		for i, ar := range w.Arrivals {
			if ar.Node >= n {
				return nil, nil, fmt.Errorf("scenario: workload: arrival %d at node %d outside [0,%d)", i, ar.Node, n)
			}
			wl.Add(sim.Time(ar.At), graph.NodeID(ar.Node), core.Msg{ID: i, Origin: graph.NodeID(ar.Node)})
		}
		return nil, wl, nil
	case WorkloadConstruction:
		switch art := built.Artifact.(type) {
		case *topology.ParallelLinesC:
			a := make(core.Assignment, n)
			a[art.A(1)] = []core.Msg{{ID: 0, Origin: art.A(1)}}
			a[art.B(1)] = []core.Msg{{ID: 1, Origin: art.B(1)}}
			return a, nil, nil
		case *topology.StarChoke:
			a := make(core.Assignment, n)
			for i := 1; i < art.K; i++ {
				v := art.Source(i)
				a[v] = []core.Msg{{ID: i - 1, Origin: v}}
			}
			a[art.Hub()] = []core.Msg{{ID: art.K - 1, Origin: art.Hub()}}
			return a, nil, nil
		default:
			return nil, nil, fmt.Errorf("scenario: workload: topology %q has no canonical construction workload (artifact %T)",
				r.Topology.Name, built.Artifact)
		}
	default:
		return nil, nil, fmt.Errorf("scenario: workload: unknown kind %q", w.Kind)
	}
}
