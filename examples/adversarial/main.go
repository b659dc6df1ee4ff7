// Adversarial: a live run of the paper's lower-bound construction (Figure 2
// and Lemmas 3.19/3.20). Two reliable lines A and B carry messages m0 and
// m1; grey-zone cross links let the adversarial message scheduler keep each
// line's frontier busy with the *other* line's message, so the useful
// message advances only one hop per Fack — every MMB algorithm is forced to
// Ω((D+k)·Fack) under the grey zone constraint (Theorem 3.17).
//
// The whole construction is one declarative spec: the "parallel-lines"
// topology exposes its artifact, the "construction" workload places m0/m1
// on the line heads, and the "adversary" scheduler wires itself to both
// (scenarios/adversarial-lower-bound.json is the same scenario as data).
// The example narrates the frontier progress from the recorded trace, then
// verifies the execution still satisfies every abstract MAC layer guarantee
// (the adversary plays strictly by the rules).
//
// Run with:
//
//	go run ./examples/adversarial
package main

import (
	"fmt"
	"os"

	"amac/internal/core"
	"amac/internal/scenario"
	"amac/internal/topology"
)

func main() {
	const D = 10
	const fprog, fack = 10, 200

	base := scenario.Spec{
		Name:      "adversarial-lower-bound",
		Topology:  scenario.TopologySpec{Name: "parallel-lines", Params: topology.Params{"d": D}},
		Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadConstruction},
		Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
		Scheduler: scenario.SchedulerSpec{Name: "adversary"},
		Model:     scenario.ModelSpec{Fprog: fprog, Fack: fack},
		Run:       scenario.RunSpec{Seed: 1, Check: true},
	}
	report, err := scenario.Run(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adversarial: %v\n", err)
		os.Exit(1)
	}
	// The narration reads the construction's line layout, which the trial's
	// network summary does not carry: build the (deterministic) instance the
	// trial ran on.
	built, err := scenario.BuildTopology(base, base.Run.Seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adversarial: %v\n", err)
		os.Exit(1)
	}
	net := built.Artifact.(*topology.ParallelLinesC)
	res := report.Trials[0].Result

	fmt.Printf("network C (Figure 2): two %d-node lines, %d reliable + %d unreliable edges\n",
		D, net.G.M(), len(net.UnreliableEdges()))
	fmt.Printf("grey zone constant realized by the embedding: c = %.2f\n\n", net.GreyZoneConstant())

	// Narrate m0's march down line A from the recorded trace.
	m0 := core.Msg{ID: 0, Origin: net.A(1)}
	fmt.Println("m0's frontier progress down line A (one hop per Fack — the adversary's work):")
	for _, ev := range res.Trace.Filter(core.DeliverKind) {
		if ev.Value().(core.Msg) != m0 {
			continue
		}
		node := ev.Node
		if node < D { // line A node
			fmt.Printf("  t=%5d  a%-2d delivers m0   (%.2f Fack)\n",
				int64(ev.At), node+1, float64(ev.At)/float64(fack))
		}
	}

	if !res.Solved {
		fmt.Fprintf(os.Stderr, "adversarial: run did not complete (%d/%d)\n",
			res.Delivered, res.Required)
		os.Exit(1)
	}
	lower := int64(D-1) * fack
	fmt.Printf("\ncompletion: %d ticks; lower-bound formula (D−1)·Fack = %d ticks\n",
		int64(res.CompletionTime), lower)
	if int64(res.CompletionTime) < lower {
		fmt.Fprintln(os.Stderr, "adversarial: execution beat the lower bound — construction broken")
		os.Exit(1)
	}
	if !res.Report.OK() {
		fmt.Fprintf(os.Stderr, "adversarial: the adversary cheated: %v\n", res.Report.Violations[0])
		os.Exit(1)
	}
	fmt.Println("the adversary stayed within all five model guarantees while forcing Ω(D·Fack).")
	fmt.Println("compare: the same network under a benign scheduler —")

	// The identical scenario with only the scheduler entry swapped: acks at
	// Fprog instead of the adversarial stretch.
	benign := base
	benign.Name = "parallel-lines-benign"
	benign.Scheduler = scenario.SchedulerSpec{Name: "sync",
		Params: topology.Params{"ack-delay": fprog, "rel": 0.5}}
	benign.Run.Check = false
	benignReport, err := scenario.Run(benign)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adversarial: benign comparison: %v\n", err)
		os.Exit(1)
	}
	benignRes := benignReport.Trials[0].Result
	fmt.Printf("  benign completion: %d ticks (%.1f× faster than the adversarial schedule)\n",
		int64(benignRes.CompletionTime),
		float64(res.CompletionTime)/float64(benignRes.CompletionTime))
}
