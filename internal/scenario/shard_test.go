package scenario

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"amac/internal/topology"
)

// shardSweepSpecs is a small mixed grid: a pinned r-restricted line (warm
// arena path), an unpinned grey-zone family (workspace + rebind path), and
// a seedless deterministic family (pinned by construction), so partitions
// cross every execution regime.
func shardSweepSpecs() []Spec {
	return []Spec{
		{
			Name: "pinned",
			Topology: TopologySpec{
				Name:   "rline",
				Params: topology.Params{"n": 24, "r": 2, "p": 0.6},
				Seed:   7,
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
			Run:       RunSpec{Seed: 1, Trials: 5},
		},
		{
			Name: "unpinned",
			Topology: TopologySpec{
				Name:   "rgg",
				Params: topology.Params{"n": 20, "side": 3.4, "c": 1.6, "p": 0.5},
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.6}},
			Run:       RunSpec{Seed: 3, Trials: 7},
		},
		{
			Name:      "deterministic",
			Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 16}},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.7}},
			Run:       RunSpec{Seed: 2, Trials: 4},
		},
	}
}

// trialScalars projects the comparison-safe fields of a trial result: the
// scalars and strings that must be invariant under sharding. Pointers
// (Built, Engine) are storage artifacts and legitimately differ.
type trialScalars struct {
	Seed           int64
	Scheduler      string
	Solved         bool
	CompletionTime int64
	End            int64
	Delivered      int
	Required       int
	Broadcasts     int
	Steps          uint64
	MMBViolations  []string
}

func scalarsOf(t *TrialResult) trialScalars {
	return trialScalars{
		Seed:           t.Seed,
		Scheduler:      t.SchedulerName,
		Solved:         t.Result.Solved,
		CompletionTime: int64(t.Result.CompletionTime),
		End:            int64(t.Result.End),
		Delivered:      t.Result.Delivered,
		Required:       t.Result.Required,
		Broadcasts:     t.Result.Broadcasts,
		Steps:          t.Result.Steps,
		MMBViolations:  t.Result.MMBViolations,
	}
}

// TestSweepShardPartitionMatchesSweep is the shard-determinism property:
// any partition of the task space into consecutive shards, each run by a
// separate SweepShard call at its own parallelism, concatenates in index
// order to exactly the trials SweepWithOptions produces.
func TestSweepShardPartitionMatchesSweep(t *testing.T) {
	specs := shardSweepSpecs()
	offsets := SweepOffsets(specs)
	total := offsets[len(specs)]

	reports, err := SweepWithOptions(specs, SweepOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []trialScalars
	for _, r := range reports {
		for _, tr := range r.Trials {
			want = append(want, scalarsOf(tr))
		}
	}

	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 8; iter++ {
		var got []trialScalars
		for lo := 0; lo < total; {
			hi := lo + 1 + rng.Intn(total-lo)
			trials, err := SweepShard(specs, lo, hi, SweepOptions{Parallelism: 1 + rng.Intn(4)})
			if err != nil {
				t.Fatalf("iter %d: shard [%d, %d): %v", iter, lo, hi, err)
			}
			if len(trials) != hi-lo {
				t.Fatalf("iter %d: shard [%d, %d) returned %d trials", iter, lo, hi, len(trials))
			}
			for _, tr := range trials {
				got = append(got, scalarsOf(tr))
			}
			lo = hi
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: sharded results diverge from the serial sweep\ngot:  %+v\nwant: %+v", iter, got, want)
		}
	}
}

// TestSweepShardRange rejects out-of-range and inverted shards.
func TestSweepShardRange(t *testing.T) {
	specs := shardSweepSpecs()[:1] // 5 tasks
	for _, bad := range [][2]int{{-1, 3}, {0, 6}, {4, 2}} {
		if _, err := SweepShard(specs, bad[0], bad[1], SweepOptions{}); err == nil {
			t.Errorf("shard [%d, %d) accepted", bad[0], bad[1])
		} else if !strings.Contains(err.Error(), "task space") {
			t.Errorf("shard [%d, %d): undiagnostic error %q", bad[0], bad[1], err)
		}
	}
	if trials, err := SweepShard(specs, 2, 2, SweepOptions{}); err != nil || len(trials) != 0 {
		t.Errorf("empty shard: got %d trials, err %v", len(trials), err)
	}
}

// TestInternedPlanMatchesResolved pins the plan-interning contract: for a
// sequence of fresh draws, the interned-and-rebound plan must be
// field-for-field identical to a from-scratch resolvePlan on the same
// instance.
func TestInternedPlanMatchesResolved(t *testing.T) {
	r := shardSweepSpecs()[1].WithDefaults() // unpinned rgg
	var w worker
	for seed := int64(3); seed < 9; seed++ {
		built, err := buildTopology(r, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.planFor(r, built)
		if err != nil {
			t.Fatal(err)
		}
		want, err := resolvePlan(r, built)
		if err != nil {
			t.Fatal(err)
		}
		if got.built != built {
			t.Fatalf("seed %d: interned plan not rebound to the new instance", seed)
		}
		if got.horizon != want.horizon || got.stepLimit != want.stepLimit ||
			got.k != want.k || got.schedName != want.schedName {
			t.Fatalf("seed %d: interned plan diverged: got {h=%v sl=%d k=%d s=%s}, want {h=%v sl=%d k=%d s=%s}",
				seed, got.horizon, got.stepLimit, got.k, got.schedName,
				want.horizon, want.stepLimit, want.k, want.schedName)
		}
		if got.net != want.net {
			t.Fatalf("seed %d: interned network summary %+v, resolved %+v", seed, got.net, want.net)
		}
		if !reflect.DeepEqual(got.payloads, want.payloads) {
			t.Fatalf("seed %d: interned payloads diverged", seed)
		}
		if !reflect.DeepEqual(got.workload.Arrivals(), want.workload.Arrivals()) {
			t.Fatalf("seed %d: interned workload diverged", seed)
		}
	}
}
