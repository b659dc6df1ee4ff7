// Package scenario is the declarative experiment API: a Spec names a
// topology family, a workload, an algorithm and a scheduler — all resolved
// through name-keyed registries — plus the model constants and run options,
// and is JSON-round-trippable so scenarios live in files rather than code.
// Run executes a Spec across its trials on the shared worker pool; Sweep
// executes a grid of Specs. Adding a scenario is a data change, not a code
// change.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"amac/internal/core"
	"amac/internal/sched"
	"amac/internal/topology"
)

// Spec declares one executable scenario. The zero value of every optional
// field selects a documented default, so minimal specs stay minimal.
type Spec struct {
	// Name labels the scenario in reports and file listings.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation carried with the spec.
	Description string `json:"description,omitempty"`
	// Topology selects the network family and its parameters.
	Topology TopologySpec `json:"topology"`
	// Workload selects how the MMB messages arrive.
	Workload WorkloadSpec `json:"workload"`
	// Algorithm selects the registered MMB algorithm.
	Algorithm AlgorithmSpec `json:"algorithm"`
	// Scheduler selects the MAC scheduler; an empty name uses the
	// algorithm's registered default.
	Scheduler SchedulerSpec `json:"scheduler,omitzero"`
	// Model sets the abstract MAC layer timing constants.
	Model ModelSpec `json:"model,omitzero"`
	// Run sets seeds, trials, parallelism and termination options.
	Run RunSpec `json:"run,omitzero"`
}

// TopologySpec names a registered topology family and its parameters.
type TopologySpec struct {
	// Name keys topology.Build.
	Name string `json:"name"`
	// Params parameterizes the family (see the registry for accepted
	// names). A "seed" entry pins the family's random stream directly.
	Params topology.Params `json:"params,omitempty"`
	// Seed pins the topology random stream for every trial; 0 derives it
	// from the trial seed times SeedFactor, so randomized families draw a
	// fresh instance per trial.
	Seed int64 `json:"seed,omitempty"`
	// SeedFactor scales the trial seed into the topology seed when Seed is
	// 0; 0 selects 1.
	SeedFactor int64 `json:"seed_factor,omitempty"`
}

// Workload kinds.
const (
	// WorkloadSingleton spreads K single-message origins evenly over the
	// nodes (or uses Origins verbatim when set), all arriving at time zero.
	WorkloadSingleton = "singleton"
	// WorkloadSingleSource injects K messages at Origin at time zero.
	WorkloadSingleSource = "single-source"
	// WorkloadPoisson spreads K messages over the first Span ticks at
	// reproducibly random times and nodes (the online MMB variant).
	WorkloadPoisson = "poisson"
	// WorkloadExplicit lists every arrival verbatim.
	WorkloadExplicit = "explicit"
	// WorkloadConstruction uses the canonical workload of a structured
	// topology (parallel-lines: m0 at a₁ and m1 at b₁; star-choke: one
	// message per source plus one at the hub).
	WorkloadConstruction = "construction"
)

// WorkloadSpec declares how messages arrive.
type WorkloadSpec struct {
	// Kind is one of the Workload* constants.
	Kind string `json:"kind"`
	// K is the message count (singleton, single-source, poisson).
	K int `json:"k,omitempty"`
	// Origin is the injection node for single-source workloads.
	Origin int `json:"origin,omitempty"`
	// Origins optionally lists singleton origins explicitly.
	Origins []int `json:"origins,omitempty"`
	// Span is the poisson arrival window in ticks.
	Span int64 `json:"span,omitempty"`
	// Seed pins the poisson stream; 0 uses the run's base seed, so the
	// workload is identical across trials (only execution randomness
	// varies).
	Seed int64 `json:"seed,omitempty"`
	// Arrivals lists explicit arrivals; message IDs follow slice order.
	Arrivals []ArrivalSpec `json:"arrivals,omitempty"`
}

// ArrivalSpec is one explicit timed injection.
type ArrivalSpec struct {
	At   int64 `json:"at"`
	Node int   `json:"node"`
}

// AlgorithmSpec names a registered algorithm and its parameters.
type AlgorithmSpec struct {
	Name   string          `json:"name"`
	Params topology.Params `json:"params,omitempty"`
}

// SchedulerSpec names a registered scheduler and its parameters.
type SchedulerSpec struct {
	Name   string          `json:"name,omitempty"`
	Params topology.Params `json:"params,omitempty"`
}

// ModelSpec sets the abstract MAC layer constants.
type ModelSpec struct {
	// Fprog is the progress bound in ticks; 0 selects 10.
	Fprog int64 `json:"fprog,omitempty"`
	// Fack is the acknowledgment bound in ticks; 0 selects 200.
	Fack int64 `json:"fack,omitempty"`
	// EpsAbort bounds post-abort deliveries (the paper's ε_abort).
	EpsAbort int64 `json:"eps_abort,omitempty"`
}

// RunSpec sets execution options.
type RunSpec struct {
	// Seed is the base random seed; trial t runs with Seed + t. 0 selects 1.
	Seed int64 `json:"seed,omitempty"`
	// Trials replays the scenario across consecutive seeds; 0 selects 1.
	Trials int `json:"trials,omitempty"`
	// Parallelism bounds concurrent trial simulations; results are
	// seed-keyed and deterministic at any value. 0 selects 1.
	Parallelism int `json:"parallelism,omitempty"`
	// Check verifies the model guarantees after every run, in any trace
	// mode (core.RunOptions.Check).
	Check bool `json:"check,omitempty"`
	// Trace selects the trace mode: "memory" (default), "stream" (requires
	// trace_file) or "off". It mirrors core.RunOptions.Trace; illegal
	// combinations with trace_file fail Validate.
	Trace string `json:"trace,omitempty"`
	// Shards selects the decomposed executor with at most this many
	// component shards running concurrently; 0 (default) keeps the
	// single-engine executor. See core.RunOptions.Shards.
	Shards int `json:"shards,omitempty"`
	// ToQuiescence runs past completion until the network is silent; the
	// default halts at the moment of the last required delivery.
	ToQuiescence bool `json:"to_quiescence,omitempty"`
	// Horizon bounds the execution in ticks; 0 selects the algorithm's
	// registered horizon, falling back to the runner's generic bound.
	Horizon int64 `json:"horizon,omitempty"`
	// StepLimit bounds simulation events; 0 selects the algorithm default.
	StepLimit uint64 `json:"step_limit,omitempty"`
	// TraceFile streams each trial's trace to a binary file (see
	// sim.TraceWriter) instead of accumulating it in RAM — the path for
	// networks whose traces exceed memory; with "shards" the decomposed
	// executor still holds every event in memory, 40 bytes each, until
	// its merge. The trial seed is spliced in before the extension
	// ("out.amtr" -> "out.s3.amtr"), so parallel trials and multi-trial
	// runs never collide on one file. Requires "trace": "stream".
	TraceFile string `json:"trace_file,omitempty"`
}

// WithDefaults returns a copy with every defaulted scalar resolved, so
// consumers can read fields without re-implementing the default table.
func (s Spec) WithDefaults() Spec {
	if s.Topology.SeedFactor == 0 {
		s.Topology.SeedFactor = 1
	}
	if s.Model.Fprog == 0 {
		s.Model.Fprog = 10
	}
	if s.Model.Fack == 0 {
		s.Model.Fack = 200
	}
	if s.Run.Seed == 0 {
		s.Run.Seed = 1
	}
	if s.Run.Trials == 0 {
		s.Run.Trials = 1
	}
	if s.Run.Parallelism == 0 {
		s.Run.Parallelism = 1
	}
	return s
}

// Validate checks the spec against the registries and the field domains,
// returning a descriptive error for the first violation. A valid spec can
// still fail at build time for instance-specific reasons (e.g. no connected
// geometric instance at the requested density); those surface from Run.
func (s Spec) Validate() error {
	r := s.WithDefaults()
	if err := topology.ValidateSpec(r.Topology.Name, r.Topology.Params); err != nil {
		return fmt.Errorf("scenario: topology: %w", err)
	}
	if r.Topology.SeedFactor < 0 {
		return fmt.Errorf("scenario: topology: seed_factor must be positive, got %d", r.Topology.SeedFactor)
	}
	// Topology seeds are threaded to the builders as exact int64s (the old
	// float64 round trip was lossy above 2^53), so any pinned seed is fine;
	// only the derived trial-seed × seed_factor product can still go wrong,
	// by overflowing int64 and silently aliasing seeds.
	if r.Topology.Seed == 0 && r.Topology.SeedFactor > 1 {
		maxTrialSeed := abs64(r.Run.Seed) + int64(r.Run.Trials)
		if maxTrialSeed > math.MaxInt64/r.Topology.SeedFactor {
			return fmt.Errorf("scenario: topology: trial seeds (run seed %d + %d trials) × seed_factor %d overflow int64",
				r.Run.Seed, r.Run.Trials, r.Topology.SeedFactor)
		}
	}
	switch r.Workload.Kind {
	case WorkloadSingleton:
		if len(r.Workload.Origins) == 0 && r.Workload.K < 1 {
			return fmt.Errorf("scenario: workload: singleton needs k >= 1 or explicit origins, got k=%d", r.Workload.K)
		}
		for _, o := range r.Workload.Origins {
			if o < 0 {
				return fmt.Errorf("scenario: workload: negative origin %d", o)
			}
		}
	case WorkloadSingleSource:
		if r.Workload.K < 1 {
			return fmt.Errorf("scenario: workload: single-source needs k >= 1, got %d", r.Workload.K)
		}
		if r.Workload.Origin < 0 {
			return fmt.Errorf("scenario: workload: negative origin %d", r.Workload.Origin)
		}
	case WorkloadPoisson:
		if r.Workload.K < 1 {
			return fmt.Errorf("scenario: workload: poisson needs k >= 1, got %d", r.Workload.K)
		}
		if r.Workload.Span < 0 {
			return fmt.Errorf("scenario: workload: negative span %d", r.Workload.Span)
		}
	case WorkloadExplicit:
		if len(r.Workload.Arrivals) == 0 {
			return fmt.Errorf("scenario: workload: explicit needs at least one arrival")
		}
		for i, ar := range r.Workload.Arrivals {
			if ar.Node < 0 {
				return fmt.Errorf("scenario: workload: arrival %d at negative node %d", i, ar.Node)
			}
			if ar.At < 0 {
				return fmt.Errorf("scenario: workload: arrival %d at negative time %d", i, ar.At)
			}
		}
	case WorkloadConstruction:
		// Artifact support is checked at build time, when the topology's
		// construction is in hand.
	case "":
		return fmt.Errorf("scenario: workload: kind is required (one of singleton, single-source, poisson, explicit, construction)")
	default:
		return fmt.Errorf("scenario: workload: unknown kind %q", r.Workload.Kind)
	}
	if err := core.ValidateAlgorithmSpec(r.Algorithm.Name, r.Algorithm.Params); err != nil {
		return fmt.Errorf("scenario: algorithm: %w", err)
	}
	schedName := r.Scheduler.Name
	if schedName == "" {
		alg, _ := core.LookupAlgorithm(r.Algorithm.Name)
		schedName = alg.DefaultScheduler
	}
	if err := sched.ValidateSpec(schedName, r.Scheduler.Params); err != nil {
		return fmt.Errorf("scenario: scheduler: %w", err)
	}
	if r.Model.Fprog < 2 {
		return fmt.Errorf("scenario: model: fprog must be >= 2 ticks, got %d", r.Model.Fprog)
	}
	if r.Model.Fack < r.Model.Fprog {
		return fmt.Errorf("scenario: model: fack (%d) must be >= fprog (%d)", r.Model.Fack, r.Model.Fprog)
	}
	if r.Model.EpsAbort < 0 {
		return fmt.Errorf("scenario: model: eps_abort must be >= 0, got %d", r.Model.EpsAbort)
	}
	if r.Run.Trials < 1 {
		return fmt.Errorf("scenario: run: trials must be >= 1, got %d", r.Run.Trials)
	}
	if r.Run.Parallelism < 1 {
		return fmt.Errorf("scenario: run: parallelism must be >= 1, got %d", r.Run.Parallelism)
	}
	if r.Run.Horizon < 0 {
		return fmt.Errorf("scenario: run: negative horizon %d", r.Run.Horizon)
	}
	if _, err := r.Run.TraceMode(); err != nil {
		return err
	}
	if r.Run.Shards < 0 {
		return fmt.Errorf("scenario: run: negative shards %d", r.Run.Shards)
	}
	return nil
}

// TraceMode parses the "trace" key into the core.TraceMode the execution
// uses, or returns an error for an illegal combination with trace_file.
func (r RunSpec) TraceMode() (core.TraceMode, error) {
	m, err := core.ParseTraceMode(r.Trace)
	if err != nil {
		return 0, fmt.Errorf("scenario: run: %w", err)
	}
	if m == core.TraceStream && r.TraceFile == "" {
		return 0, fmt.Errorf("scenario: run: trace=stream requires trace_file")
	}
	if m != core.TraceStream && r.TraceFile != "" {
		return 0, fmt.Errorf("scenario: run: trace_file requires trace=stream, got trace=%q", m)
	}
	return m, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Parse decodes a JSON spec strictly: unknown fields are errors, so typos in
// hand-written scenario files surface instead of silently selecting
// defaults.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	return s, nil
}

// Load reads and parses a JSON scenario file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// JSON renders the spec as indented JSON with a trailing newline.
func (s Spec) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal: %w", err)
	}
	return append(buf, '\n'), nil
}
