package scenario

import (
	"fmt"
	"testing"

	"amac/internal/topology"
)

// unpinnedSpecs returns multi-trial scenarios over randomized families with
// no pinned seed, so every trial draws a fresh network: the regime where a
// worker builds into its workspace and rebinds its runner per trial.
func unpinnedSpecs(trials int) []Spec {
	return []Spec{
		{
			Name: "rgg-unpinned",
			Topology: TopologySpec{
				Name:   "rgg",
				Params: topology.Params{"n": 14, "side": 2.4, "c": 1.6, "p": 0.5},
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
			Model:     ModelSpec{Fprog: 10, Fack: 200},
			Run:       RunSpec{Seed: 3, Trials: trials, Check: true},
		},
		{
			Name: "crosstalk-unpinned",
			Topology: TopologySpec{
				Name:       "grid-crosstalk",
				Params:     topology.Params{"rows": 3, "cols": 4, "r": 2, "p": 0.5},
				SeedFactor: 7717,
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
			Model:     ModelSpec{Fprog: 10, Fack: 200},
			Run:       RunSpec{Seed: 2, Trials: trials, Check: true},
		},
	}
}

// trialSnapshot renders everything observable about one executed trial —
// network summary, scalar outcome and the full trace text — for
// byte-for-byte comparison. It must be taken before the worker's next trial recycles the
// pooled engine.
func trialSnapshot(tr *TrialResult) string {
	res := tr.Result
	ok := res.Report == nil || res.Report.OK()
	return fmt.Sprintf("net=%+v k=%d sched=%s solved=%v t=%d end=%d del=%d req=%d bcasts=%d steps=%d check=%v\n%s",
		tr.Network, tr.K, tr.SchedulerName, res.Solved, res.CompletionTime, res.End,
		res.Delivered, res.Required, res.Broadcasts, res.Steps, ok,
		res.Trace.String())
}

// TestWarmTrialMatchesFresh is the executor's acceptance guarantee at trace
// granularity: for pinned and unpinned specs across a run of seeds, a trial
// executed on one worker's warm state — pooled fleet, cached scheduler,
// recycled engine and, for unpinned specs, a workspace-built topology and
// rebound runner — is byte-identical to a fresh one-shot Trial, including
// the full event trace of every seed.
func TestWarmTrialMatchesFresh(t *testing.T) {
	for _, spec := range append(unpinnedSpecs(1), pinnedSpecs(1)...) {
		t.Run(spec.Name, func(t *testing.T) {
			warm, err := newSpecRun(spec.WithDefaults(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 6; seed++ {
				fresh, err := Trial(spec, seed)
				if err != nil {
					t.Fatalf("fresh trial seed %d: %v", seed, err)
				}
				want := trialSnapshot(fresh)
				tr, err := warm.trial(seed, 0)
				if err != nil {
					t.Fatalf("warm trial seed %d: %v", seed, err)
				}
				if got := trialSnapshot(tr); got != want {
					t.Fatalf("warm trial seed %d diverged from fresh:\nwarm:\n%.400s\nfresh:\n%.400s",
						seed, got, want)
				}
			}
		})
	}
}

// TestUnpinnedSweepMatchesNoArena pins the guarantee at the scenario
// surface: sweeps of unpinned specs, drawn into a warm workspace and
// rebound per trial, produce the results of fresh one-shot trials,
// sequential and parallel alike.
func TestUnpinnedSweepMatchesNoArena(t *testing.T) {
	sweepMatchesFreshTrials(t, unpinnedSpecs(5))
}

// TestDeterministicFamilyTakesWarmPath pins the pinning bugfix: a
// deterministic family with no seed at all (ring) must be treated as pinned
// — one shared network instance, warm engine reuse across trials — and stay
// identical to fresh one-shot trials.
func TestDeterministicFamilyTakesWarmPath(t *testing.T) {
	spec := Spec{
		Topology:  TopologySpec{Name: "ring", Params: topology.Params{"n": 16}},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Run:       RunSpec{Seed: 1, Trials: 4},
	}
	if !topologyPinned(spec.WithDefaults()) {
		t.Fatal("seedless deterministic family not treated as pinned")
	}
	warm, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Trials[0].Result.Engine != warm.Trials[1].Result.Engine {
		t.Fatal("trials of a deterministic family did not reuse the warm engine")
	}

	fresh := freshReports(t, []Spec{spec})[0]
	for i := range warm.Trials {
		w, f := warm.Trials[i].Result, fresh.Trials[i].Result
		if w.CompletionTime != f.CompletionTime || w.Steps != f.Steps || w.Delivered != f.Delivered {
			t.Fatalf("trial %d diverged between warm and fresh deterministic-family runs", i)
		}
	}
}

// TestLargeTrialSeedsStayDistinct is the regression test for the lossy
// seed plumbing: trial seeds above 2^53 used to be rounded through a
// float64 parameter, colliding adjacent trials onto one network. The spec
// below would have drawn the same rgg instance for both trials.
func TestLargeTrialSeedsStayDistinct(t *testing.T) {
	spec := unpinnedSpecs(2)[0]
	spec.Run.Seed = int64(1) << 53 // float64(2^53) == float64(2^53 + 1)
	if err := spec.Validate(); err != nil {
		t.Fatalf("large run seed rejected: %v", err)
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var duals [2]*topology.Dual
	for i, tr := range rep.Trials {
		built, err := BuildTopology(spec, tr.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := summarize(built.Dual); tr.Network != got {
			t.Fatalf("trial %d ran on %+v, but its seed builds %+v", i, tr.Network, got)
		}
		duals[i] = built.Dual
	}
	a, b := duals[0], duals[1]
	if fmt.Sprint(a.G.Edges()) == fmt.Sprint(b.G.Edges()) &&
		fmt.Sprint(a.GPrime.Edges()) == fmt.Sprint(b.GPrime.Edges()) {
		t.Fatal("adjacent trial seeds above 2^53 drew the same network — the seed is being rounded through a float64")
	}

	// A pinned seed beyond 2^53 must validate and thread exactly too.
	pinned := spec
	pinned.Run.Seed = 1
	pinned.Topology.Seed = (int64(1) << 53) + 1
	if err := pinned.Validate(); err != nil {
		t.Fatalf("pinned seed beyond 2^53 rejected: %v", err)
	}
}

// TestTrialNetworkMatchesBuild pins the network summary every trial
// carries: for pinned and unpinned specs, at sequential and parallel pool
// sizes, each trial's summary equals the one computed from a fresh build of
// its seed, so no trial reports a network recycled by a later trial on its
// worker. The unreliable-edge count, taken from the two edge totals, must
// equal the count of G′ edges missing from G.
func TestTrialNetworkMatchesBuild(t *testing.T) {
	specs := append(unpinnedSpecs(5), pinnedSpecs(5)...)
	for _, parallelism := range []int{1, 2} {
		reports, err := SweepWithOptions(specs, SweepOptions{Parallelism: parallelism})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		for si, rep := range reports {
			for _, tr := range rep.Trials {
				built, err := BuildTopology(specs[si], tr.Seed)
				if err != nil {
					t.Fatal(err)
				}
				want := summarize(built.Dual)
				if tr.Network != want {
					t.Fatalf("parallelism %d: %s seed %d: summary %+v, fresh build %+v",
						parallelism, rep.Spec.Name, tr.Seed, tr.Network, want)
				}
				if grey := len(built.Dual.UnreliableEdges()); want.Unreliable != grey {
					t.Fatalf("%s seed %d: |E'\\E| = %d from the edge totals, %d unreliable edges",
						rep.Spec.Name, tr.Seed, want.Unreliable, grey)
				}
				if tr.K != rep.Spec.Workload.K {
					t.Fatalf("%s seed %d: k = %d, spec asks for %d", rep.Spec.Name, tr.Seed, tr.K, rep.Spec.Workload.K)
				}
			}
		}
	}
}
