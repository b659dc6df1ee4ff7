package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/sched"
	"amac/internal/topology"
)

// tinyTopologies maps every registered topology family to small-instance
// parameters and the workload that fits it. TestRegistryCompleteness fails
// if a family is registered without an entry here, so new topologies cannot
// ship untested.
var tinyTopologies = map[string]struct {
	params   topology.Params
	workload WorkloadSpec
}{
	"line":           {topology.Params{"n": 6}, WorkloadSpec{Kind: WorkloadSingleton, K: 2}},
	"ring":           {topology.Params{"n": 6}, WorkloadSpec{Kind: WorkloadSingleton, K: 2}},
	"star":           {topology.Params{"n": 6}, WorkloadSpec{Kind: WorkloadSingleton, K: 2}},
	"tree":           {topology.Params{"n": 7}, WorkloadSpec{Kind: WorkloadSingleton, K: 2}},
	"grid":           {topology.Params{"rows": 2, "cols": 3}, WorkloadSpec{Kind: WorkloadSingleton, K: 2}},
	"rgg":            {topology.Params{"n": 10, "side": 2, "c": 1.6, "p": 0.5}, WorkloadSpec{Kind: WorkloadSingleton, K: 2}},
	"rline":          {topology.Params{"n": 8, "r": 2, "p": 0.6}, WorkloadSpec{Kind: WorkloadSingleton, K: 2}},
	"noisy-line":     {topology.Params{"n": 8, "extra": 4}, WorkloadSpec{Kind: WorkloadSingleton, K: 2}},
	"pods":           {topology.Params{"n": 12, "k": 3, "r": 2, "p": 0.6}, WorkloadSpec{Kind: WorkloadSingleton, K: 3}},
	"grid-crosstalk": {topology.Params{"rows": 3, "r": 2, "p": 0.5}, WorkloadSpec{Kind: WorkloadSingleton, K: 2}},
	"parallel-lines": {topology.Params{"d": 3}, WorkloadSpec{Kind: WorkloadConstruction}},
	"star-choke":     {topology.Params{"k": 3}, WorkloadSpec{Kind: WorkloadConstruction}},
}

// schedulerFor pairs every registered scheduler with a topology it can run
// on. TestRegistryCompleteness fails on registered-but-unlisted schedulers.
var schedulerFor = map[string]struct {
	topo   string
	params topology.Params
}{
	"sync":       {"line", topology.Params{"rel": 0.5}},
	"random":     {"rline", topology.Params{"rel": 0.5}},
	"contention": {"rline", topology.Params{"flaky-up": 40, "flaky-down": 40}},
	"slot":       {"line", nil},
	"adversary":  {"parallel-lines", nil},
}

// runTiny executes the spec across a few seeds and returns the first solved
// report (FMMB's guarantees are w.h.p., so a fixed seed may legitimately
// miss on tiny instances).
func runTiny(t *testing.T, s Spec) *Report {
	t.Helper()
	var last *Report
	for seed := int64(1); seed <= 5; seed++ {
		s.Run.Seed = seed
		rep, err := Run(s)
		if err != nil {
			t.Fatalf("%s/%s: %v", s.Topology.Name, s.Algorithm.Name, err)
		}
		last = rep
		if tr := rep.Trials[0]; tr.Result.Report != nil && !tr.Result.Report.OK() {
			t.Fatalf("%s/%s seed %d: model violation: %v",
				s.Topology.Name, s.Algorithm.Name, seed, tr.Result.Report.Violations[0])
		}
		if rep.Solved() == len(rep.Trials) {
			return rep
		}
	}
	t.Fatalf("%s/%s: unsolved on every seed (last: %d/%d)",
		s.Topology.Name, s.Algorithm.Name,
		last.Trials[0].Result.Delivered, last.Trials[0].Result.Required)
	return nil
}

// TestRegistryCompleteness builds and runs every registered topology with
// every registered algorithm (on its default scheduler) and exercises every
// registered scheduler, all on tiny instances with the model checkers on.
func TestRegistryCompleteness(t *testing.T) {
	var covered []string
	for _, name := range topology.Names() {
		if _, ok := tinyTopologies[name]; ok {
			covered = append(covered, name)
		}
	}
	if !reflect.DeepEqual(covered, topology.Names()) {
		t.Fatalf("tinyTopologies covers %v but the registry has %v", covered, topology.Names())
	}
	for _, schedName := range sched.Names() {
		if _, ok := schedulerFor[schedName]; !ok {
			t.Fatalf("scheduler %q registered without a completeness entry", schedName)
		}
	}

	for _, topoName := range topology.Names() {
		tiny := tinyTopologies[topoName]
		for _, algName := range core.AlgorithmNames() {
			spec := Spec{
				Topology:  TopologySpec{Name: topoName, Params: tiny.params},
				Workload:  tiny.workload,
				Algorithm: AlgorithmSpec{Name: algName},
				Run:       RunSpec{Check: true},
			}
			if algName == "fmmb" {
				spec.Algorithm.Params = topology.Params{"c": 1.6}
			}
			runTiny(t, spec)
		}
	}

	for schedName, cfg := range schedulerFor {
		tiny := tinyTopologies[cfg.topo]
		spec := Spec{
			Topology:  TopologySpec{Name: cfg.topo, Params: tiny.params},
			Workload:  tiny.workload,
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: schedName, Params: cfg.params},
			Run:       RunSpec{Check: true},
		}
		runTiny(t, spec)
	}
}

// TestRunDeterministicAcrossParallelism asserts a multi-trial report is a
// pure function of the spec regardless of worker pool size.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	base := Spec{
		Topology:  TopologySpec{Name: "rline", Params: topology.Params{"n": 12, "r": 2, "p": 0.6}},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Scheduler: SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
		Run:       RunSpec{Trials: 6},
	}
	seq := base
	seq.Run.Parallelism = 1
	par := base
	par.Run.Parallelism = 4
	seqRep, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	parRep, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqRep.Trials {
		s, p := seqRep.Trials[i].Result, parRep.Trials[i].Result
		if s.CompletionTime != p.CompletionTime || s.Steps != p.Steps || s.Delivered != p.Delivered {
			t.Fatalf("trial %d diverged across parallelism: sequential %+v parallel %+v", i, s, p)
		}
	}
}

// TestSweepMatchesRun asserts Sweep over a grid equals Run on each member.
func TestSweepMatchesRun(t *testing.T) {
	var specs []Spec
	for _, n := range []int{6, 10} {
		specs = append(specs, Spec{
			Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": float64(n)}},
			Workload:  WorkloadSpec{Kind: WorkloadSingleSource, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Run:       RunSpec{Trials: 3},
		})
	}
	reports, err := Sweep(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		direct, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.Trials) != len(reports[i].Trials) {
			t.Fatalf("spec %d: %d vs %d trials", i, len(direct.Trials), len(reports[i].Trials))
		}
		for j := range direct.Trials {
			a, b := direct.Trials[j].Result, reports[i].Trials[j].Result
			if a.CompletionTime != b.CompletionTime || a.Steps != b.Steps {
				t.Fatalf("spec %d trial %d: Sweep diverged from Run", i, j)
			}
		}
	}
}

// TestExplicitWorkload runs an explicit arrival list end to end: timed,
// multi-origin injections the flag interface never expressed.
func TestExplicitWorkload(t *testing.T) {
	rep, err := Run(Spec{
		Topology: TopologySpec{Name: "ring", Params: topology.Params{"n": 8}},
		Workload: WorkloadSpec{Kind: WorkloadExplicit, Arrivals: []ArrivalSpec{
			{At: 0, Node: 0}, {At: 50, Node: 4}, {At: 120, Node: 2},
		}},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Run:       RunSpec{Check: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Trials[0].Result
	if !res.Solved {
		t.Fatalf("explicit workload unsolved: %d/%d", res.Delivered, res.Required)
	}
	if res.CompletionTime < 120 {
		t.Fatalf("completion %d precedes the last arrival", res.CompletionTime)
	}
}

// TestTrialErrors exercises the build-time error paths that static
// validation cannot catch.
func TestTrialErrors(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantSub string
	}{
		{"origin outside network", Spec{
			Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 4}},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, Origins: []int{9}},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
		}, "outside [0,4)"},
		{"construction without artifact", Spec{
			Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 4}},
			Workload:  WorkloadSpec{Kind: WorkloadConstruction},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
		}, "no canonical construction workload"},
		{"adversary off its network", Spec{
			Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 4}},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "adversary"},
		}, "requires the parallel-lines topology"},
		{"undersized rgg", Spec{
			Topology:  TopologySpec{Name: "rgg", Params: topology.Params{"n": 40, "side": 40, "max-tries": 3}},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
		}, "no connected rgg instance"},
		{"sync delay beyond fprog", Spec{
			Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 4}},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"recv-delay": 50}},
		}, "recv-delay 50 outside [1, fprog=10]"},
	}
	for _, tc := range cases {
		_, err := Trial(tc.spec, 1)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestRunRejectsRGGBelowUnitGreyZone pins that Run reports an rgg grey zone
// constant below 1 as an error instead of panicking inside the geometric
// builder (the job server runs specs without a recover).
func TestRunRejectsRGGBelowUnitGreyZone(t *testing.T) {
	rep, err := Run(Spec{
		Topology:  TopologySpec{Name: "rgg", Params: topology.Params{"n": 50, "c": 0.5}},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
	})
	if err == nil {
		t.Fatalf("Run = %v, want an error", rep)
	}
	if want := "rgg needs c >= 1, got 0.5"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestRunRejectsRGGNonFiniteGeometry pins that Run reports a non-finite rgg
// grey zone constant or side as the build error it is. At n = 3000 a NaN c
// used to reach the network validation in core.NewRunner ("violates
// E ⊆ E′") after the cell grid dropped every G′ candidate.
func TestRunRejectsRGGNonFiniteGeometry(t *testing.T) {
	for _, tc := range []struct {
		params topology.Params
		want   string
	}{
		{topology.Params{"n": 3000, "c": math.NaN()}, "rgg needs a finite c, got NaN"},
		{topology.Params{"n": 50, "side": math.Inf(1)}, "rgg needs a finite side, got +Inf"},
	} {
		rep, err := Run(Spec{
			Topology:  TopologySpec{Name: "rgg", Params: tc.params},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
		})
		if err == nil {
			t.Fatalf("%v: Run = %v, want an error", tc.params, rep)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: error %q does not mention %q", tc.params, err, tc.want)
		}
	}
}

// TestTrialOnInvalidDual pins that a caller-built network is validated
// before anything reads it: TrialOn returns the error core.Run reports for
// an invalid dual — a node-count mismatch or a G edge missing from G′ —
// instead of panicking, and still runs the valid instance it was built from.
func TestTrialOnInvalidDual(t *testing.T) {
	spec := Spec{
		Name:      "trial-on",
		Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": 4}},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
	}
	built, err := BuildTopology(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := TrialOn(spec, 1, built); err != nil || !tr.Result.Solved {
		t.Fatalf("valid instance: %v", err)
	}
	for name, d := range map[string]*topology.Dual{
		"node counts": {G: built.Dual.G, GPrime: graph.New(3), Name: "mismatch"},
		"E ⊄ E′":      {G: built.Dual.G, GPrime: graph.New(4), Name: "not-a-subgraph"},
	} {
		bad := *built
		bad.Dual = d
		if _, err := TrialOn(spec, 1, &bad); err == nil || !strings.Contains(err.Error(), "core: invalid dual") {
			t.Errorf("%s: TrialOn returned %v, want the invalid-dual error", name, err)
		}
	}
}
