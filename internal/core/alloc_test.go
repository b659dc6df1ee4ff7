package core

import (
	"math/rand"
	"runtime"
	"testing"

	"amac/internal/check"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/topology"
)

// TestBMMBFloodAllocationBudget is the allocation-regression guard for the
// whole simulator stack: a small BMMB flood, including engine construction,
// must stay within a fixed allocation budget. At the time of writing a run
// costs ~490 allocations (nearly all one-time setup: fleet, node states,
// instance records) for ~93 events; the budget below has headroom for
// toolchain drift but fails if the hot path regresses to allocating per
// event again (un-pooled events, trace records, or map traffic per
// delivery would each add hundreds).
func TestBMMBFloodAllocationBudget(t *testing.T) {
	const budget = 700
	d := topology.Line(16)
	run := func() *Result {
		return MustRun(RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Sync{},
			Seed:             7,
			Assignment:       SingleSource(16, 0, 2),
			Automata:         NewBMMBFleet(16),
			HaltOnCompletion: true,
			Options:          RunOptions{Trace: TraceOff},
		})
	}
	if res := run(); !res.Solved {
		t.Fatalf("flood not solved: %d/%d", res.Delivered, res.Required)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if !run().Solved {
			t.Fatal("flood not solved")
		}
	})
	if allocs > budget {
		t.Fatalf("BMMB flood allocates %.0f times per run, budget %d", allocs, budget)
	}
}

// TestColdBMMBAllocationsFlatInInstances guards the storage of the
// standard-model reception path on a cold one-shot run — fresh fleet,
// runner and arena, as core.Run builds them — on a grey-zone rgg under
// sync with rel 0.5. Instance records come from slabs, grey-target buffers
// from an arena block, receivers are read off the delivery rows and BMMB's
// rcvd set is a bitset in its fleet record, so no allocation is made per
// broadcast instance or per reception: one ceiling of 10 allocations per
// node holds at k = 2 and at k = 8 (600 and 2,400 instances). Storage that
// grows per instance — a receiver list or grey buffer grown by append, a
// record or a map per instance — costs 25+ allocations per node at k = 2.
func TestColdBMMBAllocationsFlatInInstances(t *testing.T) {
	d := topology.ConnectedRandomGeometric(300, 8, 1.6, 0.5, rand.New(rand.NewSource(11)), 50)
	if d == nil {
		t.Fatal("no connected rgg")
	}
	n := d.N()
	ceiling := 10 * float64(n)
	for _, k := range []int{2, 8} {
		origins := make([]graph.NodeID, k)
		for i := range origins {
			origins[i] = graph.NodeID(i * n / k)
		}
		instances := 0
		allocs := testing.AllocsPerRun(5, func() {
			res := MustRun(RunConfig{
				Dual:             d,
				Fack:             200,
				Fprog:            10,
				Scheduler:        &sched.Sync{Rel: sched.Bernoulli{P: 0.5}},
				Seed:             3,
				Assignment:       Singleton(n, origins),
				Automata:         NewBMMBFleet(n),
				HaltOnCompletion: true,
				Options:          RunOptions{Trace: TraceOff},
			})
			if !res.Solved {
				t.Fatal("flood not solved")
			}
			instances = res.Broadcasts
		})
		if instances < k*n-k {
			t.Fatalf("k=%d: %d broadcast instances, want about %d", k, instances, k*n)
		}
		if allocs > ceiling {
			t.Fatalf("k=%d: cold BMMB run allocates %.0f times for %d instances, ceiling %.0f (10 per node)",
				k, allocs, instances, ceiling)
		}
	}
}

// TestWarmArenaTrialAllocations is the warm-path regression guard: the
// second and later trials of a pinned topology on a core.Runner must do
// zero fleet-construction allocations. Fleet reset is asserted exactly
// zero; the full warm run is held to a budget calibrated so that any
// reconstruction — automata (~2n allocs for a BMMB fleet), node states
// (n), instance records or delivery rows (one per broadcast) — blows it
// immediately. Since payloads moved to typed scalars (no per-event
// boxing) and BMMB's queue stopped shrinking its backing array across
// runs, a warm 64-node, k=2 flood costs ~8 allocations — the Result
// record plus per-run workload resolution; a cold run of the same
// configuration costs ~1100.
func TestWarmArenaTrialAllocations(t *testing.T) {
	const (
		n          = 64
		warmBudget = 24
	)
	d := topology.Line(n)
	assignment := SingleSource(n, 0, 2)
	fleet := NewBMMBFleet(n)
	scheduler := &sched.Sync{}
	rn := NewRunner(d)

	warmRun := func() {
		for _, a := range fleet {
			a.(mac.Resettable).Reset()
		}
		res, err := rn.Run(RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        scheduler,
			Seed:             7,
			Assignment:       assignment,
			Automata:         fleet,
			HaltOnCompletion: true,
			Options:          RunOptions{Trace: TraceOff},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Fatalf("flood not solved: %d/%d", res.Delivered, res.Required)
		}
	}
	warmRun() // fill the arena pools

	if allocs := testing.AllocsPerRun(20, func() {
		for _, a := range fleet {
			a.(mac.Resettable).Reset()
		}
	}); allocs != 0 {
		t.Fatalf("fleet reset allocates %.0f times, want 0", allocs)
	}

	warm := testing.AllocsPerRun(20, warmRun)
	if warm > warmBudget {
		t.Fatalf("warm-arena trial allocates %.0f times per run, budget %d (fleet or engine construction crept back in)",
			warm, warmBudget)
	}

	cold := testing.AllocsPerRun(20, func() {
		res := MustRun(RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Sync{},
			Seed:             7,
			Assignment:       assignment,
			Automata:         NewBMMBFleet(n),
			HaltOnCompletion: true,
			Options:          RunOptions{Trace: TraceOff},
		})
		if !res.Solved {
			t.Fatal("flood not solved")
		}
	})
	if warm >= cold/2 {
		t.Fatalf("warm trial allocates %.0f times vs %.0f cold — arena reuse is not amortizing construction", warm, cold)
	}
}

// TestCheckAllAllocationsFlat guards the storage of the model checker:
// check.All over a clean BMMB execution (k = 8, contention with rel 0.5,
// trace off) makes the same small number of allocations on a 20×20 and a
// 40×40 grid-crosstalk network — the report plus the progress check's flat
// tables, whatever the node, instance and receive counts. Tables kept per
// receiver (a receive list grown by append, a suffix-minimum slice each)
// cost about 4,350 and 17,500 allocations on these networks.
func TestCheckAllAllocationsFlat(t *testing.T) {
	const ceiling = 8
	// The process's first collection starts the runtime's background mark
	// workers, whose allocations would land in whichever count it falls in.
	runtime.GC()
	var allocs []float64
	for _, side := range []int{20, 40} {
		built, err := topology.BuildSeeded("grid-crosstalk",
			topology.Params{"rows": float64(side), "cols": float64(side), "r": 2, "p": 0.5}, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := built.Dual
		n := d.N()
		origins := make([]graph.NodeID, 8)
		for i := range origins {
			origins[i] = graph.NodeID(i * n / len(origins))
		}
		res := MustRun(RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Contention{Rel: sched.Bernoulli{P: 0.5}},
			Seed:             1,
			Assignment:       Singleton(n, origins),
			Automata:         NewBMMBFleet(n),
			HaltOnCompletion: true,
			Options:          RunOptions{Trace: TraceOff},
		})
		if !res.Solved {
			t.Fatalf("%d nodes: flood not solved", n)
		}
		insts := res.Engine.Instances()
		p := check.Params{Fack: 200, Fprog: 10, End: res.End}
		if rep := check.All(d, insts, p); !rep.OK() {
			t.Fatalf("%d nodes: clean execution flagged: %v", n, rep.Violations[0])
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() { check.All(d, insts, p) }))
		t.Logf("%d nodes, %d instances: check.All allocates %.0f times", n, len(insts), allocs[len(allocs)-1])
	}
	if allocs[0] != allocs[1] || allocs[1] > ceiling {
		t.Fatalf("check.All allocates %v times on 400 and 1,600 nodes, want one constant ≤ %d", allocs, ceiling)
	}
}
