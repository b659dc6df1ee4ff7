package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
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

// smallPods builds the smoke size of perfbench's pods-sharded network:
// 4,000 nodes in 16 r-restricted line pods with grey edges, one G′
// component each.
func smallPods(t *testing.T) *topology.Dual {
	t.Helper()
	built, err := topology.BuildSeeded("pods", topology.Params{"n": 4000, "k": 16, "r": 2, "p": 0.5}, 535353)
	if err != nil {
		t.Fatal(err)
	}
	return built.Dual
}

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

	// Reuse across configurations on the same runner: a message in every
	// component; then none in the last one, which HaltOnCompletion skips,
	// so nothing it recorded in the run before may reach the merge; then,
	// after a Rebind, a network with fewer components than the runner has
	// seen.
	skip := shardedConfig(4)
	skip.Assignment = Singleton(skip.Dual.N(), []graph.NodeID{0, 8})
	fewer := shardedConfig(4)
	fewer.Dual = disjointLines(2, 8)
	fewer.Assignment = Singleton(fewer.Dual.N(), []graph.NodeID{0, 8})
	fewer.Automata = NewBMMBFleet(fewer.Dual.N())
	for i, cfg := range []RunConfig{shardedConfig(4), skip, fewer} {
		want := runSharded(t, cfg)
		cfg.Automata = NewBMMBFleet(cfg.Dual.N())
		rn.Rebind(cfg.Dual)
		res, err := rn.Run(cfg)
		if err != nil {
			t.Fatalf("reuse run %d: %v", i, err)
		}
		if got, want := res.Trace.String(), want.Trace.String(); got != want {
			t.Fatalf("reuse run %d: warm trace has %d events, cold %d",
				i, strings.Count(got, "\n"), strings.Count(want, "\n"))
		}
		if res.Steps != want.Steps || res.Delivered != want.Delivered || res.End != want.End {
			t.Fatalf("reuse run %d: warm result %+v, cold %+v", i, res, want)
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

// podsAllocRun returns a runner-backed function that executes BMMB with
// 64 spread messages on the 4,000-node pods dual in the given trace mode
// and reports the bytes the run allocated, by the runtime's TotalAlloc,
// with its result.
func podsAllocRun(t *testing.T) func(RunOptions) (uint64, *Result) {
	d := smallPods(t)
	n := d.N()
	fleet := NewBMMBFleet(n)
	cfg := RunConfig{
		Dual:             d,
		Fack:             200,
		Fprog:            10,
		Scheduler:        newSync(),
		NewScheduler:     newSync,
		Seed:             1,
		Workload:         spread(64)(n, 0),
		Automata:         fleet,
		HaltOnCompletion: true,
	}
	rn := NewRunner(d)
	return func(opts RunOptions) (uint64, *Result) {
		for _, a := range fleet {
			a.(mac.Resettable).Reset()
		}
		cfg.Options = opts
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := rn.Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Fatalf("unsolved: %d/%d deliveries", res.Delivered, res.Required)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
}

// TestShardedStreamWarmAllocations pins that a warm sharded run streams
// without allocating per event: components record into the runner's
// pooled blocks, the merge hands each event straight to the writer, and
// each component's sim queue serves its events from the pool the earlier
// runs filled. On the 4,000-node pods dual, once a run has filled the
// pools, a streamed run allocates fewer bytes, by the runtime's
// TotalAlloc, than it emits events. A copy of each component's trace alone
// costs 64 B an event.
func TestShardedStreamWarmAllocations(t *testing.T) {
	run := podsAllocRun(t)
	tw := sim.NewTraceWriter(io.Discard)
	stream := RunOptions{Trace: TraceStream, Sink: tw, Shards: 2}
	run(stream) // fill the pools
	events := tw.Len()
	streamed, _ := run(stream)
	events = tw.Len() - events
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	if streamed >= uint64(events) {
		t.Fatalf("warm streamed sharded run allocates %d bytes for %d events: %.2f B an event, want under 1",
			streamed, events, float64(streamed)/float64(events))
	}
}

// TestShardedMemoryTraceAllocations pins that a memory-mode sharded run
// builds its merged trace without copying it as it grows, as appending to
// one growing slice would, about log₂ of its length times. On the
// 4,000-node pods dual, once a run has filled the component traces, a
// memory-mode run allocates under 1.5× the merged trace's bytes, at a
// sim.Trace's 40 bytes an event, beyond the same run with the trace off,
// so only what the trace costs counts.
func TestShardedMemoryTraceAllocations(t *testing.T) {
	// traceRecordSize is sim.Trace's bytes per event, pinned by sim's
	// TestTraceRecordLayout.
	const traceRecordSize = 40
	run := podsAllocRun(t)
	mem := RunOptions{Trace: TraceMemory, Shards: 2}
	run(mem) // fill the component traces
	traced, res := run(mem)
	off, _ := run(RunOptions{Trace: TraceOff, Shards: 2})
	size := uint64(res.Trace.Len()) * traceRecordSize
	if traced >= off+size*3/2 {
		t.Fatalf("warm memory-mode sharded run allocates %d bytes for a %d-byte trace of %d events, %d with the trace off: %.2f× the trace, want under 1.5×",
			traced, size, res.Trace.Len(), off, float64(traced-off)/float64(size))
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

// TestShardedTracePinned pins the decomposed executor's merged order byte
// for byte: the length and SHA-256 of the AMTR stream at shards = 2 on two
// multi-component networks, three disjoint lines and a small pods dual with
// grey edges. Every golden network is connected, where the decomposed
// executor runs one engine, and the determinism tests compare the executor
// with itself, so this is the test that notices a merge-order change that
// every shard count shares.
func TestShardedTracePinned(t *testing.T) {
	cases := []struct {
		name string
		dual *topology.Dual
		k    int // messages, spread evenly over the nodes
		size int
		sum  string
	}{
		{"disjoint-lines", disjointLines(3, 64), 3,
			8728, "ad40b56a6f20b2eead0976942a403066e25b4744812e55a3fca7d17cc74b521f"},
		{"pods", smallPods(t), 64,
			949478, "34dae4bbc0fbeb0e7656e5f4987682df5fd8e2c21a092ba3a77fd22da0b3ca9f"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		tw := sim.NewTraceWriter(&buf)
		n := tc.dual.N()
		runSharded(t, RunConfig{
			Dual:             tc.dual,
			Fack:             200,
			Fprog:            10,
			Scheduler:        newSync(),
			NewScheduler:     newSync,
			Seed:             1,
			Workload:         spread(tc.k)(n, 0),
			Automata:         NewBMMBFleet(n),
			HaltOnCompletion: true,
			Options:          RunOptions{Trace: TraceStream, Sink: tw, Shards: 2},
		})
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != tc.size || got != tc.sum {
			t.Errorf("%s: merged stream is %d bytes, SHA-256 %s; pinned %d bytes, %s",
				tc.name, buf.Len(), got, tc.size, tc.sum)
		}
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
