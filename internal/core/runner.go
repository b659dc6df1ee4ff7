package core

import (
	"fmt"
	"slices"

	"amac/internal/check"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// RunConfig describes one MMB execution.
type RunConfig struct {
	// Dual is the network. Required.
	Dual *topology.Dual
	// Fack and Fprog are the model constants in ticks.
	Fack, Fprog sim.Time
	// Scheduler supplies the model's non-determinism. Required; it serves
	// every single-engine execution (Options.Shards == 0, and decomposed
	// runs that degenerate to one engine).
	Scheduler mac.Scheduler
	// NewScheduler constructs a fresh scheduler instance. Required when
	// Options.Shards >= 1 (each component shard gets its own instance;
	// sharing one would entangle their random streams) and
	// forbidden otherwise. Instances must be built deterministically —
	// equal calls, equal schedulers — and the function must be safe to call
	// from concurrent shard workers.
	NewScheduler func() mac.Scheduler
	// Mode selects Standard (default) or Enhanced.
	Mode mac.Mode
	// Seed drives all randomness.
	Seed int64
	// Assignment maps nodes to their time-zero injected messages. Either
	// Assignment (length N) or Workload must be set.
	Assignment Assignment
	// Workload optionally supplies timed arrivals for the online MMB
	// variant (paper footnote 4). When set, Assignment is ignored.
	Workload *Workload
	// Automata supplies one node program per node. Required, length N.
	Automata []mac.Automaton
	// Horizon bounds the execution length; 0 selects a generous default
	// derived from the trivial O(D·k·Fack) upper bound.
	Horizon sim.Time
	// StepLimit bounds the number of simulation events; 0 selects a
	// default proportional to the horizon and network size.
	StepLimit uint64
	// HaltOnCompletion stops the run at the moment the last required
	// delivery happens (the runner observes completion; the algorithms
	// themselves never learn k, matching the problem statement).
	HaltOnCompletion bool
	// Options is the unified observation/verification/parallelism block:
	// trace mode, sink, checking, and the decomposed-executor knobs. The
	// zero value (trace to memory, no check, single-engine executor)
	// matches the old defaults; illegal combinations fail Validate.
	Options RunOptions
	// EpsAbort forwards to the engine.
	EpsAbort sim.Time
}

// Result reports one MMB execution.
type Result struct {
	// Solved is true when every message reached every node of its
	// origin's connected component in G.
	Solved bool
	// CompletionTime is the time of the last required delivery (valid
	// only when Solved).
	CompletionTime sim.Time
	// End is the time the simulation stopped.
	End sim.Time
	// Delivered counts deliver events observed (unique per node/message).
	Delivered int
	// Required counts the deliveries needed for completion.
	Required int
	// Broadcasts counts MAC broadcast instances used.
	Broadcasts int
	// Steps counts simulation events processed.
	Steps uint64
	// Report holds the model-compliance report (nil unless Check).
	Report *check.Report
	// MMBViolations lists violations of the MMB problem's own
	// correctness conditions (duplicate or unsolicited delivers).
	MMBViolations []string
	// Trace holds the recorded execution trace when Options.Trace is
	// TraceMemory, nil otherwise. On the single-engine executor it aliases
	// the Runner's pooled trace buffer (valid until the Runner's next Run);
	// on the decomposed executor it is a freshly merged trace the caller
	// owns.
	Trace *sim.Trace
	// Engine exposes the underlying engine for post-run inspection. It is
	// valid until the Runner's next Run, which recycles it, so inspect (or
	// copy out of) it before starting another trial; plain core.Run results
	// keep their engine indefinitely. Decomposed executions (Options.Shards
	// >= 1 on a multi-component network) run many engines and leave Engine
	// nil. Its non-test readers are amacsim -stats, the
	// ablation-message-complexity experiment and perfbench's verification.
	Engine *mac.Engine
}

// Validate checks the configuration and returns a descriptive error for the
// first violation. It covers every condition Run (and the engine underneath)
// requires, so a config that validates cleanly cannot fail to start.
func (cfg *RunConfig) Validate() error {
	_, err := cfg.resolve(false)
	return err
}

// resolve validates the configuration and returns the resolved workload
// (building it from the assignment when needed), so Run validates and
// resolves in one pass. dualChecked skips re-validating the dual, for a
// Runner whose own dual it is: NewRunner or Rebind validated it once.
func (cfg *RunConfig) resolve(dualChecked bool) (*Workload, error) {
	if cfg.Dual == nil {
		return nil, fmt.Errorf("core: RunConfig.Dual is required")
	}
	if !dualChecked {
		if err := validateDual(cfg.Dual); err != nil {
			return nil, err
		}
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("core: RunConfig.Scheduler is required")
	}
	if cfg.Fprog < 2 {
		return nil, fmt.Errorf("core: Fprog must be >= 2 ticks, got %d (schedulers need at least one tick of slack inside a progress window)", cfg.Fprog)
	}
	if cfg.Fack < cfg.Fprog {
		return nil, fmt.Errorf("core: Fack (%d) must be >= Fprog (%d)", cfg.Fack, cfg.Fprog)
	}
	if cfg.EpsAbort < 0 {
		return nil, fmt.Errorf("core: EpsAbort must be >= 0, got %d", cfg.EpsAbort)
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	if cfg.Options.Shards >= 1 && cfg.NewScheduler == nil {
		return nil, fmt.Errorf("core: Options.Shards=%d requires NewScheduler (each shard engine needs its own scheduler instance)", cfg.Options.Shards)
	}
	if cfg.Options.Shards == 0 && cfg.NewScheduler != nil {
		return nil, fmt.Errorf("core: NewScheduler set but Options.Shards=0 selects the single-engine executor (set Shards >= 1 or drop NewScheduler)")
	}
	n := cfg.Dual.N()
	workload := cfg.Workload
	if workload == nil {
		if len(cfg.Assignment) != n {
			return nil, fmt.Errorf("core: assignment covers %d of %d nodes (set Assignment with length N or Workload)", len(cfg.Assignment), n)
		}
		workload = FromAssignment(cfg.Assignment)
	}
	if len(cfg.Automata) != n {
		return nil, fmt.Errorf("core: %d automata for %d nodes", len(cfg.Automata), n)
	}
	for i, a := range cfg.Automata {
		if a == nil {
			return nil, fmt.Errorf("core: nil automaton for node %d", i)
		}
	}
	if workload.K() == 0 {
		return nil, fmt.Errorf("core: empty workload (MMB requires k >= 1)")
	}
	for _, ar := range workload.Arrivals() {
		if int(ar.Node) < 0 || int(ar.Node) >= n {
			return nil, fmt.Errorf("core: arrival at node %d outside [0,%d)", ar.Node, n)
		}
		if ar.Msg.Origin != ar.Node {
			return nil, fmt.Errorf("core: arrival of %v at node %d contradicts its origin", ar.Msg, ar.Node)
		}
	}
	if err := workload.idError(); err != nil {
		return nil, err
	}
	return workload, nil
}

// validateDual is the one check of a network's structural invariant per
// run, worded as every entry point reports it.
func validateDual(d *topology.Dual) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("core: invalid dual: %w", err)
	}
	return nil
}

// Run executes the configured MMB instance to completion (or horizon) on a
// one-shot Runner and returns the result. Invalid configurations return a
// descriptive error (see Validate) rather than panicking; fail-fast callers
// use MustRun.
func Run(cfg RunConfig) (*Result, error) {
	workload, err := cfg.resolve(false)
	if err != nil {
		return nil, err
	}
	return newRunner(cfg.Dual).run(cfg, workload)
}

// Runner executes repeated MMB configurations on one pinned network with
// warm state, all reused across Run calls: the component index of G and
// one slot per worker (see slot). Slot 0 runs single-engine executions;
// sharded worker w runs on slot w, so the sharded executor is as warm as
// the single-engine one. Every execution runs on a Runner — core.Run builds
// a one-shot one. The first Run fills the pools; subsequent runs skip
// engine and fleet-scaffolding allocation entirely. Executions are
// byte-identical on fresh and warm runners at equal configuration — the
// golden-trace suite and TestRunnerWarmMatchesCold pin that.
//
// A Runner serves one execution at a time and is not safe for concurrent
// use; parallel trial pools hold one Runner per worker. Each Run recycles
// the previous Result's Engine (see Result.Engine).
type Runner struct {
	dual      *topology.Dual
	compOf    []int
	compSizes []int
	// compQueue is the BFS scratch componentIndexInto recycles per Rebind.
	compQueue []graph.NodeID
	// slots holds one warm slot per worker; NewRunner builds slot 0 and the
	// sharded executor grows the rest before its workers start. They are
	// pointers because each slot's watcher is bound to its own runState,
	// which must not move when the slice grows.
	slots []*slot
	// The G′ component index drives the sharded executor's carve-up. It is
	// computed lazily on the first sharded Run (single-engine runs never
	// pay for it) and keyed by the dual it was computed for, so Rebind
	// invalidates it for free.
	gpFor      *topology.Dual
	gpCompOf   []int
	gpCompSize []int
	gpQueue    []graph.NodeID
}

// slot is one worker's warm run state: the arena its engines are acquired
// from, the in-memory trace buffer its runs record into, and the
// completion-watcher state with its watcher bound once, so arming a run
// allocates no closure.
type slot struct {
	arena *mac.Arena
	trace sim.Trace
	st    runState
	watch func(sim.TraceEvent)
}

func newSlot(d *topology.Dual) *slot {
	s := &slot{arena: mac.NewArena(d)}
	s.watch = s.st.onEvent
	return s
}

// NewRunner returns a warm runner for the given network. It panics on an
// invalid dual, exactly like mac.NewEngine: runners are constructed from
// already-built topologies, so this is a programming error. NewRunnerChecked
// returns the error instead.
func NewRunner(d *topology.Dual) *Runner {
	r, err := NewRunnerChecked(d)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// NewRunnerChecked is NewRunner for networks built outside the registry: an
// invalid dual is returned as the error Run reports for it. The dual is
// validated here once; the runner's runs and its arenas do not re-check it.
func NewRunnerChecked(d *topology.Dual) (*Runner, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil dual")
	}
	if err := validateDual(d); err != nil {
		return nil, err
	}
	return newRunner(d), nil
}

// newRunner builds a runner for a dual its caller has validated.
func newRunner(d *topology.Dual) *Runner {
	r := &Runner{dual: d, slots: []*slot{newSlot(d)}}
	r.compOf, r.compSizes, _ = componentIndexInto(d.G, nil, nil, nil)
	return r
}

// Dual returns the network the runner was built for.
func (r *Runner) Dual() *topology.Dual { return r.dual }

// Rebind re-targets the runner at a new dual network: every slot's arena
// is rebound (reliability bitset refilled, delivery block kept when
// capacity fits) and the component index of G is recomputed into its
// existing slices. The watcher tables are per-run state and reset on the
// next Run as always. Unpinned trial sweeps rebind one runner per worker to
// each per-trial network draw; executions stay byte-identical to one-shot
// core.Run calls. Like NewRunner, it validates the new dual once and panics
// if it is invalid. Rebinding to the runner's current dual is a no-op.
func (r *Runner) Rebind(d *topology.Dual) {
	if d == r.dual {
		return
	}
	if err := validateDual(d); err != nil {
		panic(err.Error())
	}
	for _, s := range r.slots {
		s.arena.Rebind(d)
	}
	r.dual = d
	r.compOf, r.compSizes, r.compQueue = componentIndexInto(d.G, r.compOf, r.compSizes, r.compQueue)
}

// Run executes cfg against the runner's warm arena. cfg.Dual must be the
// exact network the runner was built for (pointer identity — a structurally
// equal copy would invalidate the precomputed CSR index anyway).
func (r *Runner) Run(cfg RunConfig) (*Result, error) {
	workload, err := cfg.resolve(cfg.Dual == r.dual)
	if err != nil {
		return nil, err
	}
	if cfg.Dual != r.dual {
		return nil, fmt.Errorf("core: Runner was built for dual %q, not %q (pass the identical built topology)",
			r.dual.Name, cfg.Dual.Name)
	}
	return r.run(cfg, workload)
}

// gprimeIndex returns the component index of G′, computed on first use and
// recycled across runs until a Rebind re-targets the runner.
func (r *Runner) gprimeIndex() (compOf, compSizes []int) {
	if r.gpFor != r.dual {
		r.gpCompOf, r.gpCompSize, r.gpQueue =
			componentIndexInto(r.dual.GPrime, r.gpCompOf, r.gpCompSize, r.gpQueue)
		r.gpFor = r.dual
	}
	return r.gpCompOf, r.gpCompSize
}

// componentIndexInto maps each node to its component index in g and each
// component index to its size, numbering components by smallest member
// (graph.Components ordering). It computes into the given slices (index
// storage and BFS queue scratch), grown only when capacity is short, so a
// Runner's rebind recycles all of them.
func componentIndexInto(g *graph.Graph, compOf, compSizes []int, queue []graph.NodeID) ([]int, []int, []graph.NodeID) {
	n := g.N()
	if cap(compOf) >= n {
		compOf = compOf[:n]
	} else {
		compOf = make([]int, n)
	}
	for i := range compOf {
		compOf[i] = -1
	}
	compSizes = compSizes[:0]
	if cap(queue) < n {
		queue = make([]graph.NodeID, 0, n)
	}
	for s := 0; s < n; s++ {
		if compOf[s] >= 0 {
			continue
		}
		ci := len(compSizes)
		size := 1
		compOf[s] = ci
		queue = append(queue[:0], graph.NodeID(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if compOf[v] < 0 {
					compOf[v] = ci
					size++
					queue = append(queue, v)
				}
			}
		}
		compSizes = append(compSizes, size)
	}
	return compOf, compSizes, queue
}

// runState is the completion-watcher state of one execution: it counts
// required deliveries, flags MMB violations and halts on completion. Each
// slot owns one and recycles its tables across runs. The tables are dense,
// indexed by message ID (IDs are 0..k−1, see Msg.ID): origin[id] is the
// origin of the message this run injects with that ID (−1 for none), bit id
// of arrived is set when its arrive event fires, and bit node·k + id of seen
// when node first delivers it. A deliver of a message the run never injects
// — an ID outside 0..k−1, or another origin — is reported as delivered
// before any arrive and is neither recorded nor counted.
type runState struct {
	res      *Result
	eng      *mac.Engine
	compOf   []int
	required int
	halt     bool
	k        int
	origin   []mac.NodeID
	arrived  []uint64
	seen     []uint64
}

// arm resets the tables for a run of the workload's k messages on n nodes,
// injecting arrivals. Only nodes deliver (nil: every node), so only their
// rows of seen are cleared: a shard run clears its component's rows instead
// of the whole k·n bits.
func (st *runState) arm(k, n int, nodes []mac.NodeID, arrivals []Arrival) {
	st.k = k
	st.origin = slices.Grow(st.origin[:0], k)[:k]
	for i := range st.origin {
		st.origin[i] = -1
	}
	for _, ar := range arrivals {
		st.origin[ar.Msg.ID] = ar.Msg.Origin
	}
	words := (k + 63) / 64
	st.arrived = slices.Grow(st.arrived[:0], words)[:words]
	clear(st.arrived)
	words = (k*n + 63) / 64
	switch {
	case cap(st.seen) < words:
		st.seen = make([]uint64, words)
	case nodes == nil:
		st.seen = st.seen[:words]
		clear(st.seen)
	default:
		st.seen = st.seen[:words]
		for _, v := range nodes {
			clearBits(st.seen, int(v)*k, k)
		}
	}
}

// clearBits clears bits [lo, lo+n).
func clearBits(bits []uint64, lo, n int) {
	for hi := lo + n; lo < hi; {
		span := min(64-lo&63, hi-lo)
		bits[lo>>6] &^= ^uint64(0) >> (64 - span) << (lo & 63)
		lo += span
	}
}

// injected reports whether m is a message this run injects.
func (st *runState) injected(m Msg) bool {
	return uint(m.ID) < uint(len(st.origin)) && st.origin[m.ID] == m.Origin
}

// onEvent observes the MMB interface of the execution (mac.Engine.Watch): the
// arrive events and the automata's Emits, of which it reads arrive and
// deliver. It decodes message arguments from the typed payload directly — no
// boxing — because it runs on every delivery of every trial.
func (st *runState) onEvent(ev sim.TraceEvent) {
	switch ev.Kind {
	case "arrive":
		m := mustMsg(ev.P)
		st.arrived[m.ID>>6] |= 1 << (uint(m.ID) & 63)
	case DeliverKind:
		m, ok := MsgFromPayload(ev.P)
		if !ok {
			return
		}
		if !st.injected(m) {
			st.res.MMBViolations = append(st.res.MMBViolations,
				fmt.Sprintf("deliver of %v at node %d before any arrive", m, ev.Node))
			return
		}
		bit := ev.Node*st.k + m.ID
		if st.seen[bit>>6]&(1<<(uint(bit)&63)) != 0 {
			st.res.MMBViolations = append(st.res.MMBViolations,
				fmt.Sprintf("duplicate deliver of %v at node %d", m, ev.Node))
			return
		}
		if st.arrived[m.ID>>6]&(1<<(uint(m.ID)&63)) == 0 {
			st.res.MMBViolations = append(st.res.MMBViolations,
				fmt.Sprintf("deliver of %v at node %d before any arrive", m, ev.Node))
		}
		st.seen[bit>>6] |= 1 << (uint(bit) & 63)
		// Count only deliveries required by the problem (same component
		// as the origin); cross-component leakage through G'-edges is
		// legal but not required.
		if st.compOf[ev.Node] == st.compOf[m.Origin] {
			st.res.Delivered++
			if st.res.Delivered == st.required {
				st.res.Solved = true
				st.res.CompletionTime = ev.At
				if st.halt {
					st.eng.Halt()
				}
			}
		}
	}
}

// run executes a validated cfg, with its resolved workload, on slot 0 — or
// on the sharded executor when the configuration asks for shards and G′
// decomposes.
func (r *Runner) run(cfg RunConfig, workload *Workload) (*Result, error) {
	cfg.Workload = workload
	n := cfg.Dual.N()
	k := cfg.Workload.K()
	if cfg.Horizon == 0 {
		// Trivial upper bound O(D·k·Fack) with headroom, plus slack for
		// FMMB's polylog terms on small networks, shifted by the last
		// arrival for online workloads. The diameter is sampled above
		// graph.ExactDiameterCutoff (exact — and identical — below it):
		// the all-sources exact computation is quadratic and would
		// dominate setup on 10^5-node networks, and the double-sweep
		// estimate is a lower bound whose slack the 4x headroom absorbs.
		d := cfg.Dual.G.SampledDiameter()
		cfg.Horizon = cfg.Workload.MaxAt() +
			sim.Time(4*(d+1)*(k+1))*cfg.Fack + 4096*cfg.Fprog
	}
	if cfg.StepLimit == 0 {
		cfg.StepLimit = uint64(n+1) * uint64(cfg.Horizon/cfg.Fprog+1) * 64
	}

	// The decomposed executor. Its output is a pure function of the
	// configuration — independent of Shards beyond the >= 1 switch, and of
	// how many workers actually run — but it is a different function from
	// the single-engine execution whenever the network genuinely
	// decomposes (per-shard scheduler streams replace the one global one).
	if cfg.Options.Shards >= 1 {
		if gpOf, gpSizes := r.gprimeIndex(); len(gpSizes) > 1 {
			return r.runSharded(cfg, gpOf, gpSizes), nil
		}
		// Connected in G′: the only shard is the whole network, and the
		// decomposed semantics coincide exactly with the single-engine
		// execution below (same scheduler, same streams, same trace).
	}

	// Required deliveries: every message must reach every node in its
	// origin's G-component.
	arrivals := cfg.Workload.Arrivals()
	required := 0
	for _, ar := range arrivals {
		required += r.compSizes[r.compOf[ar.Msg.Origin]]
	}
	s := r.slots[0]
	var sink sim.TraceSink
	switch cfg.Options.Trace {
	case TraceMemory:
		sink = &s.trace
	case TraceStream:
		sink = cfg.Options.Sink
	}
	res := s.run(cfg, cfg.Scheduler, sink, nil, arrivals, required, r.compOf)
	if cfg.Options.Trace == TraceMemory {
		res.Trace = &s.trace
	}
	return res, nil
}

// run executes cfg with the given scheduler on an engine acquired from the
// slot's arena: nodes wake up in slice order (nil wakes the whole network),
// the arrivals are injected, and the watcher counts deliveries toward
// required against the G component index compOf. Events go to sink — the
// slot's own trace, a caller's stream, or nil for none — and Check replays
// the slot's trace. The Result's Engine is the slot's pooled engine.
func (s *slot) run(cfg RunConfig, scheduler mac.Scheduler, sink sim.TraceSink, nodes []mac.NodeID, arrivals []Arrival, required int, compOf []int) *Result {
	s.trace.Reset()
	eng := mac.NewEngine(mac.Config{
		Dual:      cfg.Dual,
		Fack:      cfg.Fack,
		Fprog:     cfg.Fprog,
		Scheduler: scheduler,
		Mode:      cfg.Mode,
		Seed:      cfg.Seed,
		EpsAbort:  cfg.EpsAbort,
		Trace:     sink,
		Arena:     s.arena,
	}, cfg.Automata)

	res := &Result{Required: required, Engine: eng}
	st := &s.st
	st.arm(cfg.Workload.K(), cfg.Dual.N(), nodes, arrivals)
	st.res, st.eng, st.compOf = res, eng, compOf
	st.required, st.halt = required, cfg.HaltOnCompletion
	eng.Watch(s.watch)

	if nodes == nil {
		eng.Start()
	} else {
		eng.StartNodes(nodes)
	}
	for _, ar := range arrivals {
		eng.Arrive(ar.Node, ar.Msg.Payload(), ar.At)
	}
	eng.Sim().SetHorizon(cfg.Horizon)
	eng.Sim().SetStepLimit(cfg.StepLimit)
	eng.Run()

	res.End = eng.Sim().Now()
	res.Steps = eng.Sim().Steps()
	res.Broadcasts = len(eng.Instances())
	if cfg.Options.Check {
		res.Report = check.All(cfg.Dual, eng.Instances(), check.Params{
			Fack:     cfg.Fack,
			Fprog:    cfg.Fprog,
			EpsAbort: cfg.EpsAbort,
			End:      res.End,
		})
		// Defense in depth: re-derive the MMB problem conditions from the
		// trace with the generic checker (the watcher above catches them
		// online; this validates the full recorded history).
		check.MMB(res.Report, s.trace.Events(), check.MMBParams{
			DeliverKind: DeliverKind,
		})
	}
	return res
}

// MustRun is Run with the pre-redesign fail-fast contract: it panics on an
// invalid configuration. Harnesses and tests whose configurations are
// calibrated to be valid by construction use it; anything accepting
// external input should call Run and handle the error.
func MustRun(cfg RunConfig) *Result {
	res, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// SingleSource builds an assignment with k messages all injected at origin.
func SingleSource(n int, origin graph.NodeID, k int) Assignment {
	a := make(Assignment, n)
	for i := 0; i < k; i++ {
		a[origin] = append(a[origin], Msg{ID: i, Origin: origin})
	}
	return a
}

// Singleton builds a singleton assignment (no node starts with more than
// one message) over the given origins, in order.
func Singleton(n int, origins []graph.NodeID) Assignment {
	a := make(Assignment, n)
	for i, v := range origins {
		a[v] = append(a[v], Msg{ID: i, Origin: v})
	}
	return a
}
