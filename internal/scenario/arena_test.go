package scenario

import (
	"fmt"
	"testing"

	"amac/internal/topology"
)

// pinnedSpecs returns multi-trial pinned-topology scenarios covering both
// registered algorithms (bmmb's map-backed fleet, fmmb's staged
// timer/abort automaton with its MIS substate) and randomized scheduling,
// so arena plus fleet reuse is exercised across resets, not just on the
// first trial.
func pinnedSpecs(trials int) []Spec {
	return []Spec{
		{
			Name: "bmmb-pinned",
			Topology: TopologySpec{
				Name:   "rline",
				Params: topology.Params{"n": 14, "r": 2, "p": 0.6},
				Seed:   7,
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
			Model:     ModelSpec{Fprog: 10, Fack: 200},
			Run:       RunSpec{Seed: 3, Trials: trials, Check: true},
		},
		{
			Name: "fmmb-pinned",
			Topology: TopologySpec{
				Name:   "rline",
				Params: topology.Params{"n": 10, "r": 2, "p": 0.5},
				Seed:   5,
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "fmmb"},
			Model:     ModelSpec{Fprog: 10, Fack: 200},
			Run:       RunSpec{Seed: 2, Trials: trials, Check: true},
		},
	}
}

// reportFingerprint renders every per-trial scalar outcome of a sweep.
func reportFingerprint(reports []*Report) string {
	out := ""
	for _, r := range reports {
		for _, tr := range r.Trials {
			res := tr.Result
			ok := res.Report == nil || res.Report.OK()
			out += fmt.Sprintf("%s seed=%d net=%+v k=%d sched=%s solved=%v t=%d end=%d del=%d req=%d bcasts=%d steps=%d check=%v\n",
				r.Spec.Name, tr.Seed, tr.Network, tr.K, tr.SchedulerName, res.Solved, res.CompletionTime,
				res.End, res.Delivered, res.Required, res.Broadcasts, res.Steps, ok)
		}
	}
	return out
}

// freshReports runs every trial of the specs through Trial — a fresh
// topology build, fleet, scheduler and runner per trial, nothing shared —
// the reference the warm sweep paths must reproduce.
func freshReports(t *testing.T, specs []Spec) []*Report {
	t.Helper()
	out := make([]*Report, len(specs))
	for i, s := range specs {
		r := s.WithDefaults()
		rep := &Report{Spec: r}
		for k := 0; k < r.Run.Trials; k++ {
			tr, err := Trial(s, r.Run.Seed+int64(k))
			if err != nil {
				t.Fatalf("%s: fresh trial %d: %v", s.Name, k, err)
			}
			rep.Trials = append(rep.Trials, tr)
		}
		out[i] = rep
	}
	return out
}

// sweepMatchesFreshTrials checks that sweeping the specs on warm per-worker
// state reproduces fresh one-shot trials at sequential and parallel pool
// sizes alike.
func sweepMatchesFreshTrials(t *testing.T, specs []Spec) {
	t.Helper()
	want := reportFingerprint(freshReports(t, specs))
	for _, parallelism := range []int{1, 3} {
		reports, err := SweepWithOptions(specs, SweepOptions{Parallelism: parallelism})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if got := reportFingerprint(reports); got != want {
			t.Fatalf("sweep at parallelism %d diverged from fresh trials:\ngot:\n%s\nwant:\n%s", parallelism, got, want)
		}
	}
}

// TestArenaSweepMatchesNoArena pins the acceptance guarantee of the run-
// arena subsystem at the scenario layer: repeated trials of pinned
// topologies on one shared warm instance produce the results of runs with
// no arena reuse — fresh one-shot trials — at sequential and parallel pool
// sizes alike.
func TestArenaSweepMatchesNoArena(t *testing.T) {
	sweepMatchesFreshTrials(t, pinnedSpecs(5))
}

// TestRunMatchesFreshTrials pins the same guarantee through scenario.Run,
// whose pool sizes come from the spec itself.
func TestRunMatchesFreshTrials(t *testing.T) {
	spec := pinnedSpecs(4)[0]
	want := reportFingerprint(freshReports(t, []Spec{spec}))
	for _, parallelism := range []int{1, 3} {
		spec.Run.Parallelism = parallelism
		rep, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportFingerprint([]*Report{rep}); got != want {
			t.Fatalf("Run at parallelism %d diverged from fresh trials:\nwarm:\n%s\nfresh:\n%s", parallelism, got, want)
		}
	}
}
