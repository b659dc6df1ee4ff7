package core_test

import (
	"fmt"
	"strings"
	"testing"

	. "amac/internal/core"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// disjointLines builds one reliable dual holding `lines` disjoint line
// graphs of `per` nodes each — a multi-component network for the sharded
// executor.
func disjointLines(lines, per int) *topology.Dual {
	var edges [][2]graph.NodeID
	for l := 0; l < lines; l++ {
		base := l * per
		for i := 0; i < per-1; i++ {
			edges = append(edges, [2]graph.NodeID{graph.NodeID(base + i), graph.NodeID(base + i + 1)})
		}
	}
	g := new(graph.Graph)
	g.SetEdges(lines*per, edges)
	return topology.Reliable(g, fmt.Sprintf("%d-disjoint-lines", lines))
}

func newSync() mac.Scheduler { return &sched.Sync{Rel: sched.Bernoulli{P: 0.5}} }

// shardedConfig is the shared multi-component configuration of the sharded
// executor tests: three disjoint lines, one message per line.
func shardedConfig(shards int) RunConfig {
	d := disjointLines(3, 8)
	return RunConfig{
		Dual:             d,
		Fack:             200,
		Fprog:            10,
		Scheduler:        newSync(),
		NewScheduler:     newSync,
		Seed:             5,
		Assignment:       Singleton(d.N(), []graph.NodeID{0, 8, 16}),
		Automata:         NewBMMBFleet(d.N()),
		HaltOnCompletion: true,
		Options:          RunOptions{Check: true, Shards: shards},
	}
}

func runSharded(t *testing.T, cfg RunConfig) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Solved {
		t.Fatalf("unsolved: %d/%d deliveries", res.Delivered, res.Required)
	}
	if res.Report != nil && !res.Report.OK() {
		t.Fatalf("model violation: %v", res.Report.Violations[0])
	}
	if len(res.MMBViolations) > 0 {
		t.Fatalf("MMB violations: %v", res.MMBViolations)
	}
	return res
}

// TestShardedDeterminism pins the tentpole guarantee: on a multi-component
// network the decomposed executor's merged trace and result are identical
// at every shard count and across repeated runs.
func TestShardedDeterminism(t *testing.T) {
	ref := runSharded(t, shardedConfig(1))
	refTrace := ref.Trace.String()
	if ref.Engine != nil {
		t.Fatal("decomposed run should leave Result.Engine nil")
	}
	if refTrace == "" {
		t.Fatal("empty merged trace")
	}
	for _, shards := range []int{1, 2, 4, 16} {
		res := runSharded(t, shardedConfig(shards))
		if got := res.Trace.String(); got != refTrace {
			t.Fatalf("shards=%d trace differs from shards=1", shards)
		}
		if res.Delivered != ref.Delivered || res.Steps != ref.Steps ||
			res.Broadcasts != ref.Broadcasts || res.CompletionTime != ref.CompletionTime ||
			res.End != ref.End {
			t.Fatalf("shards=%d result differs: %+v vs %+v", shards, res, ref)
		}
	}
}

// TestShardedWarmMatchesCold pins that a warm Runner's sharded execution is
// byte-identical to the cold core.Run path, across repeated runs on the
// same runner.
func TestShardedWarmMatchesCold(t *testing.T) {
	cold := runSharded(t, shardedConfig(4))
	coldTrace := cold.Trace.String()

	cfg := shardedConfig(4)
	rn := NewRunner(cfg.Dual)
	for trial := 0; trial < 3; trial++ {
		cfg.Automata = NewBMMBFleet(cfg.Dual.N())
		res, err := rn.Run(cfg)
		if err != nil {
			t.Fatalf("warm run %d: %v", trial, err)
		}
		if got := res.Trace.String(); got != coldTrace {
			t.Fatalf("warm trial %d trace differs from cold", trial)
		}
	}
}

// TestShardedWarmRunAllocations pins that the sharded executor runs on
// warm slots: once a Runner's slots have run a configuration, a further
// sharded run allocates only per-run bookkeeping — node and arrival
// buckets, per-component results and schedulers, the worker goroutines —
// and never rebuilds engines, node states, instance records, delivery
// blocks or watcher maps, which at 3×64 nodes would cost hundreds of
// allocations. Keep n small: past a few hundred nodes per line the sim
// event free list's trim allocates on both sides.
func TestShardedWarmRunAllocations(t *testing.T) {
	const ceiling = 60
	d := disjointLines(3, 64)
	fleet := NewBMMBFleet(d.N())
	cfg := RunConfig{
		Dual:             d,
		Fack:             200,
		Fprog:            10,
		Scheduler:        newSync(),
		NewScheduler:     newSync,
		Seed:             5,
		Assignment:       Singleton(d.N(), []graph.NodeID{0, 64, 128}),
		Automata:         fleet,
		HaltOnCompletion: true,
		Options:          RunOptions{Trace: TraceOff, Shards: 2},
	}
	rn := NewRunner(d)
	run := func() {
		for _, a := range fleet {
			a.(mac.Resettable).Reset()
		}
		res, err := rn.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Fatalf("unsolved: %d/%d deliveries", res.Delivered, res.Required)
		}
	}
	run() // fill the slots
	if allocs := testing.AllocsPerRun(20, run); allocs > ceiling {
		t.Fatalf("warm sharded run allocates %.0f times per run, ceiling %d (per-worker engine state is rebuilt per run)", allocs, ceiling)
	}
}

// TestShardedStreamMatchesMemory pins that stream mode observes exactly the
// merged in-memory trace.
func TestShardedStreamMatchesMemory(t *testing.T) {
	mem := runSharded(t, shardedConfig(2))

	cfg := shardedConfig(2)
	cfg.Automata = NewBMMBFleet(cfg.Dual.N())
	var sink sim.Trace
	cfg.Options = RunOptions{Trace: TraceStream, Sink: &sink, Shards: 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("stream run: %v", err)
	}
	if res.Trace != nil {
		t.Fatal("stream mode should not retain an in-memory trace on the result")
	}
	if got, want := sink.String(), mem.Trace.String(); got != want {
		t.Fatal("streamed trace differs from memory-mode trace")
	}
}

// TestShardedConnectedMatchesLegacy pins the degenerate case: on a
// connected network the decomposed executor coincides exactly with the
// single-engine execution.
func TestShardedConnectedMatchesLegacy(t *testing.T) {
	d := topology.Line(12)
	mk := func(shards int) RunConfig {
		cfg := RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        newSync(),
			Seed:             3,
			Assignment:       SingleSource(12, 0, 2),
			Automata:         NewBMMBFleet(12),
			HaltOnCompletion: true,
			Options:          RunOptions{Check: true, Shards: shards},
		}
		if shards >= 1 {
			cfg.NewScheduler = newSync
		}
		return cfg
	}
	single := runSharded(t, mk(0))
	decomposed := runSharded(t, mk(4))
	if single.Trace.String() != decomposed.Trace.String() {
		t.Fatal("connected-network sharded trace differs from the single-engine one")
	}
	if decomposed.Engine == nil {
		t.Fatal("connected-network decomposed run degenerates to one engine and keeps it on the result")
	}
}

// TestRunOptionsValidate walks the illegal-combination table the redesign
// replaced silent precedence with.
func TestRunOptionsValidate(t *testing.T) {
	var sink sim.Trace
	cases := []struct {
		name string
		opts RunOptions
		want string // substring of the error, "" = valid
	}{
		{"zero value", RunOptions{}, ""},
		{"memory+check", RunOptions{Check: true}, ""},
		{"stream", RunOptions{Trace: TraceStream, Sink: &sink}, ""},
		{"off", RunOptions{Trace: TraceOff}, ""},
		{"sharded", RunOptions{Shards: 4}, ""},
		{"check+stream", RunOptions{Trace: TraceStream, Sink: &sink, Check: true}, ""},
		{"check+off", RunOptions{Trace: TraceOff, Check: true}, ""},
		{"stream without sink", RunOptions{Trace: TraceStream}, "requires a Sink"},
		{"sink without stream", RunOptions{Sink: &sink}, "only Trace=stream"},
		{"negative shards", RunOptions{Shards: -1}, "negative Shards"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestRunConfigSchedulerRules pins the NewScheduler pairing rules on the
// config surface.
func TestRunConfigSchedulerRules(t *testing.T) {
	d := topology.Line(8)
	base := RunConfig{
		Dual:       d,
		Fack:       200,
		Fprog:      10,
		Scheduler:  newSync(),
		Assignment: SingleSource(8, 0, 1),
		Automata:   NewBMMBFleet(8),
	}

	sharded := base
	sharded.Options.Shards = 2
	if err := sharded.Validate(); err == nil || !strings.Contains(err.Error(), "requires NewScheduler") {
		t.Errorf("Shards without NewScheduler: got %v", err)
	}

	single := base
	single.NewScheduler = newSync
	if err := single.Validate(); err == nil || !strings.Contains(err.Error(), "Shards=0") {
		t.Errorf("NewScheduler without Shards: got %v", err)
	}
}
