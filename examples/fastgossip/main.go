// Fastgossip: BMMB on the standard abstract MAC layer versus FMMB on the
// enhanced layer, on the same grey-zone network, as the Fack/Fprog gap
// widens. BMMB pays k·Fack for queueing behind acknowledgments; FMMB never
// waits for an ack (it aborts at every Fprog round boundary), so its
// completion time is exactly flat in Fack — the paper's argument that MAC
// layers should expose an abort interface (Section 5).
//
// Each sweep point is a pair of declarative scenario specs differing only
// in the algorithm name and the Fack constant; the topology is pinned by
// its seed so every run sees the same network.
//
// Run with:
//
//	go run ./examples/fastgossip
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"amac/internal/scenario"
	"amac/internal/topology"
)

func main() {
	const (
		n     = 30
		k     = 6
		fprog = 10
		grey  = 1.6
	)
	topo := scenario.TopologySpec{
		Name:   "rgg",
		Params: topology.Params{"n": n, "side": 3.8, "c": grey, "p": 0.5, "max-tries": 300},
		Seed:   99,
	}
	workload := scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: k}

	ratios := []int{2, 8, 32, 128, 512}
	var specs []scenario.Spec
	for _, ratio := range ratios {
		model := scenario.ModelSpec{Fprog: fprog, Fack: fprog * int64(ratio)}
		run := scenario.RunSpec{Seed: int64(ratio)}
		specs = append(specs,
			scenario.Spec{
				Name:     fmt.Sprintf("fastgossip-bmmb-%dx", ratio),
				Topology: topo, Workload: workload,
				Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
				Model:     model, Run: run,
			},
			scenario.Spec{
				Name:     fmt.Sprintf("fastgossip-fmmb-%dx", ratio),
				Topology: topo, Workload: workload,
				Algorithm: scenario.AlgorithmSpec{Name: "fmmb", Params: topology.Params{"c": grey}},
				Model:     model, Run: run,
			})
	}

	reports, err := scenario.Sweep(specs, 2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fastgossip: %v\n", err)
		os.Exit(1)
	}

	dual := reports[0].Trials[0].Built.Dual
	fmt.Printf("network: %s (D=%d), k=%d messages, Fprog=%d ticks\n\n",
		dual.Name, dual.G.Diameter(), k, fprog)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fack/Fprog\tBMMB (standard layer)\tFMMB (enhanced layer)")
	var bmmbFirst, bmmbLast float64
	var fmmbFirst, fmmbLast float64
	for i, ratio := range ratios {
		bm := reports[2*i].Trials[0].Result
		fm := reports[2*i+1].Trials[0].Result
		if !bm.Solved || !fm.Solved {
			fmt.Fprintln(os.Stderr, "fastgossip: a run failed")
			os.Exit(1)
		}
		fmt.Fprintf(w, "%d\t%d ticks\t%d ticks\n",
			ratio, int64(bm.CompletionTime), int64(fm.CompletionTime))
		if i == 0 {
			bmmbFirst, fmmbFirst = float64(bm.CompletionTime), float64(fm.CompletionTime)
		}
		bmmbLast, fmmbLast = float64(bm.CompletionTime), float64(fm.CompletionTime)
	}
	w.Flush()

	fmt.Printf("\nacross the sweep BMMB grew %.0f×, FMMB grew %.2f×.\n",
		bmmbLast/bmmbFirst, fmmbLast/fmmbFirst)
	if fmmbLast < bmmbLast {
		fmt.Println("at the widest gap FMMB wins outright — no Fack term (Theorem 4.1).")
	} else {
		fmt.Println("FMMB's polylog constants still dominate at this network size, but its")
		fmt.Println("completion is flat in Fack while BMMB's keeps growing: extend the sweep")
		fmt.Println("and the crossover is inevitable (Theorem 4.1 has no Fack term).")
	}
}
