package scenario

import (
	"testing"

	"amac/internal/topology"
)

// warmPinnedSpec is the allocation-ceiling workload: a pinned r-restricted
// line under randomized reliability, traced off so the measurement isolates
// the simulation hot path the way sweeps run it.
func warmPinnedSpec() Spec {
	return Spec{
		Name: "alloc-pinned",
		Topology: TopologySpec{
			Name:   "rline",
			Params: topology.Params{"n": 32, "r": 2, "p": 0.6},
			Seed:   7,
		},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
		Model:     ModelSpec{Fprog: 10, Fack: 200},
		Run:       RunSpec{Seed: 1, Trials: 2, Trace: "off"},
	}.WithDefaults()
}

// TestWarmTrialAllocationCeiling is the tentpole's acceptance guard: once a
// pinned-topology worker is warm — fleet parked, runner arena filled,
// scheduler cached — each further trial must run in at most a handful of
// allocations (the trial's own Result record and residual per-run scraps),
// with no per-event or per-broadcast allocation left. Typed payloads killed
// the per-event boxing; fleet, engine, node states, instances, delivery
// rows and the scheduler all come from warm storage.
func TestWarmTrialAllocationCeiling(t *testing.T) {
	const ceiling = 6
	r := warmPinnedSpec()
	w, err := newSpecRun(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		tr, err := w.trial(r.Run.Seed+1, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Result.Solved {
			t.Fatalf("trial not solved: %d/%d", tr.Result.Delivered, tr.Result.Required)
		}
	}
	run() // warm the worker: fleet, arena, scheduler cache
	allocs := testing.AllocsPerRun(50, run)
	if allocs > ceiling {
		t.Fatalf("warm pinned trial allocates %.0f times per run, ceiling %d — construction crept back into the warm path", allocs, ceiling)
	}
}

// TestUnpinnedWarmTrialAllocationBound is the unpinned counterpart: every
// trial draws a fresh topology into the worker's workspace and refits a
// pooled fleet, so per-trial allocations cannot be zero — but they must stay
// bounded by the trial's own record-keeping (result, trial record, residual
// per-draw scraps), not scale with events, broadcasts, or rejected draws.
// Plan interning (planFor), pooled BFS scratch in internal/graph, and the
// cached scheduler description brought the measured cost from ~185 to ~22;
// the bound is calibrated ~2x above that so only a structural regression
// (per-event boxing, lost fleet reuse, graph rebuilds outside the workspace,
// per-probe BFS allocation) trips it.
func TestUnpinnedWarmTrialAllocationBound(t *testing.T) {
	const bound = 50
	r := Spec{
		Name: "alloc-unpinned",
		Topology: TopologySpec{
			Name:   "rgg",
			Params: topology.Params{"n": 24, "side": 3.6, "c": 1.6, "p": 0.5},
		},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
		Model:     ModelSpec{Fprog: 10, Fack: 200},
		Run:       RunSpec{Seed: 1, Trials: 2, Trace: "off"},
	}.WithDefaults()
	w, err := newSpecRun(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	seed := r.Run.Seed
	run := func() {
		seed++
		tr, err := w.trial(seed, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Result.Solved {
			t.Fatalf("trial not solved: %d/%d", tr.Result.Delivered, tr.Result.Required)
		}
	}
	run() // warm the worker: workspace, runner, scheduler, parked fleet
	allocs := testing.AllocsPerRun(30, run)
	if allocs > bound {
		t.Fatalf("warm unpinned trial allocates %.0f times per run, bound %d", allocs, bound)
	}
}

// TestWarmFMMBTrialAllocationCeiling is the enhanced-model counterpart of
// TestWarmTrialAllocationCeiling: a warm, pinned, trace-off FMMB trial on
// the slot scheduler runs its millions-of-events shape (round timers, slot
// handlers, aborts, receptions in every stage) in a small constant number
// of allocations. Doubling the spread stage doubles its rounds and
// receptions but must not add a single allocation: the automata keep no
// per-reception pointers and the queue, slot scratch and fleet are warm.
func TestWarmFMMBTrialAllocationCeiling(t *testing.T) {
	const ceiling = 6
	var allocs [2]float64
	for i, phases := range []float64{12, 24} {
		r := Spec{
			Name: "alloc-fmmb",
			Topology: TopologySpec{
				Name:   "rline",
				Params: topology.Params{"n": 24, "r": 2, "p": 0.6},
				Seed:   7,
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
			Algorithm: AlgorithmSpec{Name: "fmmb", Params: topology.Params{"spread-phases": phases}},
			Run:       RunSpec{Seed: 1, Trials: 2, Trace: "off"},
		}.WithDefaults()
		w, err := newSpecRun(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			tr, err := w.trial(r.Run.Seed+1, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Result.Solved {
				t.Fatalf("trial not solved: %d/%d", tr.Result.Delivered, tr.Result.Required)
			}
		}
		run() // warm the worker: fleet, arena, event pool, slot scratch
		allocs[i] = testing.AllocsPerRun(20, run)
		if allocs[i] > ceiling {
			t.Fatalf("warm FMMB trial with %v spread phases allocates %.0f times per run, ceiling %d", phases, allocs[i], ceiling)
		}
	}
	if allocs[1] != allocs[0] {
		t.Fatalf("warm FMMB allocations grow with the schedule: %.0f at 12 spread phases, %.0f at 24", allocs[0], allocs[1])
	}
}
