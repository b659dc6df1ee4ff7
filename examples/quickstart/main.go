// Quickstart: declare a small grey-zone radio scenario, run the BMMB
// flooding protocol from Ghaffari, Kantor, Lynch & Newport (PODC 2014) on
// the standard abstract MAC layer, and verify both the problem solution and
// the model guarantees.
//
// The whole experiment is one scenario.Spec — the same declarative object
// amacsim loads from JSON files (see scenarios/quickstart.json for this
// exact scenario as data).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"amac/internal/scenario"
	"amac/internal/topology"
)

func main() {
	// A radio network: 30 devices dropped uniformly in a 4×4 square.
	// Devices within distance 1 share a reliable link (G); pairs within
	// the grey zone (1, 1.6] may or may not hear each other (G′). Three
	// messages start at three different devices (the MMB problem), and the
	// contention scheduler lets each receiver absorb at most one message
	// per Fprog window, with unreliable links firing with probability 1/2.
	spec := scenario.Spec{
		Name: "quickstart",
		Topology: scenario.TopologySpec{
			Name:   "rgg",
			Params: topology.Params{"n": 30, "side": 4, "c": 1.6, "p": 0.5},
			Seed:   7,
		},
		Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, Origins: []int{0, 10, 20}},
		Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
		Scheduler: scenario.SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
		Model:     scenario.ModelSpec{Fprog: 10, Fack: 200}, // progress every 10 ticks, specific message within 200
		Run:       scenario.RunSpec{Seed: 1, Check: true},
	}

	report, err := scenario.Run(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
	trial := report.Trials[0]
	net, result := trial.Network, trial.Result

	fmt.Printf("network: %s\n", net.Name)
	fmt.Printf("  nodes=%d  diameter=%d  reliable-links=%d  unreliable-links=%d\n",
		net.N, net.Diameter, net.Edges, net.Unreliable)

	if !result.Solved {
		fmt.Fprintf(os.Stderr, "quickstart: MMB not solved (%d/%d deliveries)\n",
			result.Delivered, result.Required)
		os.Exit(1)
	}
	k := trial.K
	fmt.Printf("solved: all %d messages reached all %d nodes\n", k, net.N)
	fmt.Printf("  completion time : %d ticks\n", int64(result.CompletionTime))
	fmt.Printf("  broadcasts used : %d\n", result.Broadcasts)
	fmt.Printf("  theoretical cap : O((D+k)·Fack) = %d ticks (Theorem 3.1)\n",
		(net.Diameter+k)*int(spec.Model.Fack))
	if result.Report.OK() {
		fmt.Println("  model check     : receive/ack correctness, termination, Fack and Fprog bounds all hold")
	} else {
		fmt.Printf("  model check     : VIOLATIONS %v\n", result.Report.Violations)
		os.Exit(1)
	}
}
