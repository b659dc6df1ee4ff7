package main

import (
	"fmt"
	"os"
	"path/filepath"

	"amac/internal/check"
	"amac/internal/core"
	"amac/internal/mac"
	"amac/internal/scenario"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// The traced replay runs a workload's specs through the same public calls
// scenario makes — BuildTopology/BuildInto, NewRunner/Rebind, NewFleet,
// sched.Build, Runner.Run, check.All, check.MMB and TraceWriter — with a
// span around each, one trial at a time. Its trial outcomes must equal
// those of the untraced call; verification checks that.

// Sampling parameters of the diameter estimate every caller in the
// repository uses (the runner's horizon and FMMB's schedule), so the
// replay's explicit call fills the memo they later read.
const (
	diameterSamples = 8
	diameterSeed    = 1
)

// replayResult is what the traced replay of one workload leaves behind.
type replayResult struct {
	spans    []span
	outcomes []trialOutcome
	// tracePaths holds each outcome's streamed trace file, "" for none.
	tracePaths []string
	// wall is the traced wall time of the workload's calls, probes
	// excluded; gc is the runtime counter delta over the same window.
	wall int64
	gc   counters
	// steps, bcasts and rcvs total the replayed trials' sim events, MAC
	// broadcasts and MAC receptions.
	steps  uint64
	bcasts int
	rcvs   int
	// traceEvents counts the events of the streamed traces (pods only).
	traceEvents int
	// probe holds the pods-sharded executor probes; their spans start at
	// spans[probeFrom].
	probe     *shardProbe
	probeFrom int
}

// shardProbe holds the pods-sharded comparisons made after the traced
// wall window closes, each summed over the workload's trials.
type shardProbe struct {
	runShards1 int64 // Runner.Run at shards=1, streamed
	runShards2 int64 // Runner.Run at shards=2, streamed (the workload's own runs)
	runOff     int64 // Runner.Run at shards=2, trace off
	writer     int64 // the merged trace replayed through sim.TraceWriter
}

// replayer holds one spec's warm state across its trials, mirroring the
// per-worker state scenario keeps: one runner, one fleet reset between
// trials, one scheduler reset between trials.
type replayer struct {
	t     *tracer
	dir   string
	spec  scenario.Spec // resolved
	alg   core.Algorithm
	built *topology.Built // the pinned network, nil for per-trial draws
	rn    *core.Runner
	fleet []mac.Automaton
	sch   mac.Scheduler
	res   *replayResult
}

func replay(w workload, seed int64, small bool, dir string) (*replayResult, error) {
	specs := w.specs(seed, small, dir)
	t := newTracer()
	rr := &replayResult{}
	gc0 := t.read()
	start := t.now()
	trial := 0
	var sharded *replayer
	for _, s := range specs {
		p, err := newReplayer(t, s, dir, rr)
		if err != nil {
			return nil, err
		}
		if trial, err = p.run(trial); err != nil {
			return nil, err
		}
		if p.spec.Run.Shards >= 1 {
			sharded = p
		}
	}
	rr.wall = t.now() - start
	rr.gc = t.read().minus(gc0)
	// Hash the streamed traces outside the traced window: hashing is
	// verification, not workload.
	for i, path := range rr.tracePaths {
		if path == "" {
			continue
		}
		sum, err := hashFile(path)
		if err != nil {
			return nil, err
		}
		rr.outcomes[i].TraceSHA256 = sum
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	rr.probeFrom = len(t.spans)
	if sharded != nil {
		if err := sharded.probe(); err != nil {
			return nil, err
		}
	}
	rr.spans = t.spans
	return rr, nil
}

func newReplayer(t *tracer, s scenario.Spec, dir string, rr *replayResult) (*replayer, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := s.WithDefaults()
	alg, ok := core.LookupAlgorithm(r.Algorithm.Name)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", r.Algorithm.Name)
	}
	return &replayer{t: t, dir: dir, spec: r, alg: alg, res: rr}, nil
}

// run replays every trial of the spec, numbering trials from first, and
// returns the next trial number.
func (p *replayer) run(first int) (int, error) {
	r := p.spec
	t := p.t
	var built *topology.Built
	var err error
	pinned := scenario.TopologyPinned(r)
	if pinned {
		t.trial = -1
		t.begin("scenario.spec_setup")
		built, err = p.build(r.Run.Seed, nil)
		if err == nil {
			p.arena(built)
		}
		t.end()
		if err != nil {
			return first, err
		}
		p.built = built
	}
	ws := topology.NewWorkspace()
	for i := 0; i < r.Run.Trials; i++ {
		seed := r.Run.Seed + int64(i)
		t.trial = first + i
		t.begin("scenario.trial")
		if !pinned {
			// Like scenario, the spec's first and last draws build into
			// fresh storage and the rest into the recycled workspace.
			wsi := ws
			if i == 0 || i == r.Run.Trials-1 {
				wsi = nil
			}
			built, err = p.build(seed, wsi)
			if err == nil {
				p.arena(built)
			}
		}
		var res *core.Result
		var path string
		if err == nil {
			res, path, err = p.trial(built, seed, r.Run.Shards, mode(r))
		}
		t.end()
		if err != nil {
			return first, fmt.Errorf("trial with seed %d: %w", seed, err)
		}
		o := outcomeOf(&scenario.TrialResult{Seed: seed, Result: res}, 0)
		if res.Engine != nil {
			rcvs := receptions(res)
			p.res.rcvs += rcvs
			if r.Run.Trials == 1 {
				o.Rcvs = rcvs
			}
		}
		p.res.outcomes = append(p.res.outcomes, o)
		p.res.tracePaths = append(p.res.tracePaths, path)
		p.res.steps += res.Steps
		p.res.bcasts += res.Broadcasts
	}
	t.trial = -1
	return first + r.Run.Trials, nil
}

func mode(r scenario.Spec) core.TraceMode {
	m, _ := r.Run.TraceMode() // validated by newReplayer
	return m
}

// build constructs the trial's network (into ws when non-nil) and fills
// its memoized diameter estimate.
func (p *replayer) build(seed int64, ws *topology.Workspace) (*topology.Built, error) {
	r := p.spec
	var built *topology.Built
	var err error
	p.t.do("topology.build", func() {
		if ws == nil {
			built, err = scenario.BuildTopology(r, seed)
			return
		}
		topoSeed := r.Topology.Seed
		if topoSeed == 0 {
			topoSeed = seed * r.Topology.SeedFactor
		}
		built, err = topology.BuildInto(r.Topology.Name, r.Topology.Params, topoSeed, ws)
	})
	if err != nil {
		return nil, err
	}
	p.t.do("graph.diameter", func() { built.Dual.G.ApproxDiameter(diameterSamples, diameterSeed) })
	return built, nil
}

// arena creates the runner on the first network and rebinds it after.
func (p *replayer) arena(built *topology.Built) {
	p.t.do("mac.arena", func() {
		if p.rn == nil {
			p.rn = core.NewRunner(built.Dual)
		} else {
			p.rn.Rebind(built.Dual)
		}
	})
}

// trial runs one seed on built with the given executor and trace mode and,
// when the spec checks, verifies it with check.All and check.MMB. A
// streamed trace goes to a file whose path is returned.
func (p *replayer) trial(built *topology.Built, seed int64, shards int, tm core.TraceMode) (*core.Result, string, error) {
	r := p.spec
	t := p.t
	workload, err := scenario.ResolveWorkload(r, built)
	if err != nil {
		return nil, "", err
	}
	k := workload.K()
	env := sched.Env{
		Dual:     built.Dual,
		Artifact: built.Artifact,
		Fprog:    sim.Time(r.Model.Fprog),
		Fack:     sim.Time(r.Model.Fack),
	}
	for _, ar := range workload.Arrivals() {
		env.Payloads = append(env.Payloads, ar.Msg.Payload())
	}
	t.do("core.fleet", func() { err = p.refleet(built, k) })
	if err != nil {
		return nil, "", err
	}
	schedName := r.Scheduler.Name
	if schedName == "" {
		schedName = p.alg.DefaultScheduler
	}
	t.do("sched.build", func() {
		if rs, ok := p.sch.(sched.Resettable); ok && rs.Reset(env) {
			return
		}
		p.sch, err = sched.Build(schedName, env, r.Scheduler.Params)
	})
	if err != nil {
		return nil, "", err
	}
	horizon := sim.Time(r.Run.Horizon)
	if horizon == 0 && p.alg.Horizon != nil {
		horizon = p.alg.Horizon(built.Dual, k, sim.Time(r.Model.Fprog), r.Algorithm.Params)
	}
	stepLimit := r.Run.StepLimit
	if stepLimit == 0 {
		stepLimit = p.alg.StepLimit
	}
	cfg := core.RunConfig{
		Dual:             built.Dual,
		Fack:             sim.Time(r.Model.Fack),
		Fprog:            sim.Time(r.Model.Fprog),
		Scheduler:        p.sch,
		Mode:             p.alg.Mode,
		Seed:             seed,
		Workload:         workload,
		Automata:         p.fleet,
		Horizon:          horizon,
		StepLimit:        stepLimit,
		HaltOnCompletion: !r.Run.ToQuiescence,
		Options:          core.RunOptions{Trace: tm, Shards: shards},
		EpsAbort:         sim.Time(r.Model.EpsAbort),
	}
	if shards >= 1 {
		cfg.NewScheduler = func() mac.Scheduler {
			s, err := sched.Build(schedName, env, r.Scheduler.Params)
			if err != nil {
				panic(fmt.Sprintf("shard scheduler rebuild: %v", err))
			}
			return s
		}
	}
	var path string
	var tf *os.File
	var tw *sim.TraceWriter
	if tm == core.TraceStream {
		path = filepath.Join(p.dir, fmt.Sprintf("replay-s%d-shards%d.amtr", seed, shards))
		if tf, err = os.Create(path); err != nil {
			return nil, "", err
		}
		tw = sim.NewTraceWriter(tf)
		cfg.Options.Sink = tw
	}
	var res *core.Result
	t.do("core.run", func() { res, err = p.rn.Run(cfg) })
	if tw != nil {
		ferr := tw.Flush()
		if cerr := tf.Close(); ferr == nil {
			ferr = cerr
		}
		if err == nil {
			err = ferr
		}
	}
	if err != nil {
		return nil, "", err
	}
	if r.Run.Check {
		t.do("check.all", func() {
			res.Report = check.All(cfg.Dual, res.Engine.Instances(), check.Params{
				Fack: cfg.Fack, Fprog: cfg.Fprog, EpsAbort: cfg.EpsAbort, End: res.End,
			})
		})
		t.do("check.mmb", func() {
			check.MMB(res.Report, res.Trace.Events(), check.MMBParams{DeliverKind: core.DeliverKind})
		})
	}
	return res, path, nil
}

// refleet readies a fleet for a k-message run on built: the previous
// trial's fleet refitted and reset when it has the right size and can be
// reset, a fresh NewFleet otherwise — the reuse rule of scenario's pools.
func (p *replayer) refleet(built *topology.Built, k int) error {
	r := p.spec
	if len(p.fleet) == built.Dual.N() && resettable(p.fleet) {
		ok := true
		if p.alg.Refit != nil {
			ok = p.alg.Refit(p.fleet, built.Dual, k, r.Algorithm.Params)
		}
		if ok {
			for _, a := range p.fleet {
				a.(mac.Resettable).Reset()
			}
			return nil
		}
	}
	fleet, err := p.alg.NewFleet(built.Dual, k, r.Algorithm.Params)
	if err != nil {
		return err
	}
	p.fleet = fleet
	return nil
}

func resettable(fleet []mac.Automaton) bool {
	for _, a := range fleet {
		if _, ok := a.(mac.Resettable); !ok {
			return false
		}
	}
	return true
}

// probe replays every trial of the sharded spec three more times after the
// traced window: streamed at shards=1, with the trace off at shards=2, and
// into memory at shards=2, whose merged trace is then replayed through
// sim.TraceWriter on its own. Spans land under a top-level "probe" span,
// outside the coverage of the workload's wall time.
func (p *replayer) probe() error {
	r := p.spec
	t := p.t
	pr := &shardProbe{}
	p.res.probe = pr
	built := p.built
	for _, s := range p.t.spans {
		if s.Name == "core.run" && s.Parent >= 0 {
			pr.runShards2 += s.dur()
		}
	}
	t.begin("probe")
	defer t.end()
	for i := 0; i < r.Run.Trials; i++ {
		seed := r.Run.Seed + int64(i)
		t.trial = i
		before := len(t.spans)
		_, path, err := p.trial(built, seed, 1, core.TraceStream)
		if err == nil {
			err = os.Remove(path)
		}
		if err != nil {
			return err
		}
		pr.runShards1 += lastRun(t.spans[before:])

		before = len(t.spans)
		if _, _, err := p.trial(built, seed, 2, core.TraceOff); err != nil {
			return err
		}
		pr.runOff += lastRun(t.spans[before:])

		res, _, err := p.trial(built, seed, 2, core.TraceMemory)
		if err != nil {
			return err
		}
		events := res.Trace.Events()
		p.res.traceEvents += len(events)
		for _, ev := range events {
			if ev.Kind == "rcv" {
				p.res.rcvs++
			}
		}
		before = len(t.spans)
		path = filepath.Join(p.dir, "probe.amtr")
		t.do("sim.tracewriter", func() { err = writeTrace(path, events) })
		if err == nil {
			err = os.Remove(path)
		}
		if err != nil {
			return err
		}
		pr.writer += t.spans[before].dur()
	}
	t.trial = -1
	return nil
}

// lastRun returns the duration of the last core.run span among spans.
func lastRun(spans []span) int64 {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == "core.run" {
			return spans[i].dur()
		}
	}
	return 0
}

// writeTrace encodes events with sim.TraceWriter into a file.
func writeTrace(path string, events []sim.TraceEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := sim.NewTraceWriter(f)
	for _, ev := range events {
		tw.Append(ev)
	}
	err = tw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
