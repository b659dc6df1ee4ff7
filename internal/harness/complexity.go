package harness

import (
	"fmt"

	"amac/internal/metrics"
	"amac/internal/scenario"
	"amac/internal/topology"
)

// MessageComplexity compares the broadcast economy of the two algorithms on
// the same grey-zone instances: BMMB performs exactly n broadcasts per
// message (every node forwards once), while FMMB concentrates traffic on
// the MIS backbone but pays for its randomized schedule in control
// broadcasts (election, announcements, polls, relays). The paper optimizes
// time, not messages; this ablation quantifies the trade so downstream
// users can see what FMMB's speed costs in traffic.
func MessageComplexity(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:         "ablation-message-complexity",
		Title:      "Broadcast counts: BMMB vs FMMB on the same instances",
		PaperClaim: "not bounded in the paper — FMMB trades control traffic for Fack-free time",
		Columns: []string{"n", "k", "BMMB-bcasts", "BMMB/n·k", "FMMB-bcasts",
			"FMMB-aborted", "FMMB-grey-rcv"},
	}
	const c = 1.6
	type pt struct {
		n    int
		side float64
		k    int
	}
	pts := []pt{{16, 2.6, 2}, {25, 3.3, 3}, {36, 4.2, 4}}
	if o.Quick {
		pts = pts[:2]
	}
	type trial struct {
		bB, fB, fAbort, fGrey float64
	}
	model := scenario.ModelSpec{Fprog: int64(o.Fprog), Fack: int64(o.Fack)}
	res := collectTrials(o, len(pts), func(pi int, seed int64) trial {
		p := pts[pi]
		topo := scenario.TopologySpec{Name: "rgg",
			Params:     topology.Params{"n": float64(p.n), "side": p.side, "c": c, "p": 0.5},
			SeedFactor: 7907}
		workload := scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: p.k}
		// Both algorithms run on the same seed-keyed instance.
		built, err := scenario.BuildTopology(scenario.Spec{Topology: topo}, seed)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}

		// Run BMMB to quiescence (not just completion) so trailing
		// re-broadcasts are counted: the flooding invariant is about
		// the whole execution.
		bm := mustTrialOn(t.ID, scenario.Spec{
			Topology:  topo,
			Workload:  workload,
			Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
			Scheduler: scenario.SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
			Model:     model,
			Run:       scenario.RunSpec{Check: o.Check, ToQuiescence: true},
		}, seed, built)

		fm := mustTrialOn(t.ID, scenario.Spec{
			Topology:  topo,
			Workload:  workload,
			Algorithm: scenario.AlgorithmSpec{Name: "fmmb", Params: topology.Params{"c": c}},
			Model:     model,
			Run:       scenario.RunSpec{Check: o.Check},
		}, seed, built)
		fmm := metrics.Collect(built.Dual, fm.Result.Engine.Instances(), fm.Result.Trace)
		return trial{
			bB:     float64(bm.Result.Broadcasts),
			fB:     float64(fmm.TotalInstances),
			fAbort: float64(fmm.Aborted),
			fGrey:  float64(fmm.GreyDeliveries),
		}
	})
	for pi, p := range pts {
		var bB, fB, fAbort, fGrey float64
		for _, tr := range res[pi] {
			bB += tr.bB
			fB += tr.fB
			fAbort += tr.fAbort
			fGrey += tr.fGrey
		}
		tr := float64(o.Trials)
		bB, fB, fAbort, fGrey = bB/tr, fB/tr, fAbort/tr, fGrey/tr
		t.AddRow(fmt.Sprint(p.n), fmt.Sprint(p.k),
			ticksStr(bB), fmt.Sprintf("%.2f", bB/float64(p.n*p.k)),
			ticksStr(fB), ticksStr(fAbort), ticksStr(fGrey))
	}
	t.AddNote("BMMB/n·k = 1.00 confirms the flooding invariant: every node forwards every message exactly once")
	t.AddNote("FMMB's broadcast count is dominated by its randomized control schedule, the price of Fack-free time")
	return t
}
