// Sensornet: a 6×8 grid sensor deployment in which every sensor on the
// west edge detects an event and must disseminate its reading to the whole
// field (multi-source MMB). Link unreliability is r-restricted: crosstalk
// only reaches nodes within r grid hops, the regime where the paper proves
// flooding stays fast (Theorem 3.2: O(D·Fprog + r·k·Fack)).
//
// The example sweeps r over a family of declarative scenario specs — only
// the topology's "r" parameter changes per point — and prints measured
// completion against the theorem's bound: the practical story of the paper,
// "straightforward flooding strategies tend to work well in real networks"
// as long as unreliable links are local.
//
// Run with:
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"amac/internal/scenario"
	"amac/internal/topology"
)

const (
	rows, cols = 6, 8
	fprog      = 10
	fack       = 200
)

func main() {
	// Event: every sensor in the west column has one reading to report.
	var origins []int
	for r := 0; r < rows; r++ {
		origins = append(origins, r*cols)
	}
	k := len(origins)

	spec := func(r int) scenario.Spec {
		return scenario.Spec{
			Name: fmt.Sprintf("sensornet-r%d", r),
			Topology: scenario.TopologySpec{
				Name: "grid-crosstalk",
				// Crosstalk: half of all node pairs within r grid hops.
				Params: topology.Params{"rows": rows, "cols": cols, "r": float64(r), "p": 0.5},
				Seed:   int64(r) * 101,
			},
			Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, Origins: origins},
			Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
			Scheduler: scenario.SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
			Model:     scenario.ModelSpec{Fprog: fprog, Fack: fack},
			Run:       scenario.RunSpec{Seed: int64(r), Check: true},
		}
	}

	var specs []scenario.Spec
	for _, r := range []int{1, 2, 3, 4} {
		specs = append(specs, spec(r))
	}
	reports, err := scenario.Sweep(specs, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sensornet: %v\n", err)
		os.Exit(1)
	}

	diameter := reports[0].Trials[0].Network.Diameter
	n := reports[0].Trials[0].Network.N
	fmt.Printf("sensor field: %d×%d grid, n=%d, D=%d, k=%d west-edge readings\n\n",
		rows, cols, n, diameter, k)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "r\tunreliable links\tcompletion (ticks)\tThm 3.2 bound\tratio")
	for i, rep := range reports {
		r := i + 1
		trial := rep.Trials[0]
		res := trial.Result
		if !res.Solved {
			fmt.Fprintf(os.Stderr, "sensornet: r=%d run failed (%d/%d)\n",
				r, res.Delivered, res.Required)
			os.Exit(1)
		}
		if !res.Report.OK() {
			fmt.Fprintf(os.Stderr, "sensornet: model violation: %v\n", res.Report.Violations[0])
			os.Exit(1)
		}
		bound := diameter*fprog + r*k*fack
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.3f\n",
			r, trial.Network.Unreliable, int64(res.CompletionTime), bound,
			float64(res.CompletionTime)/float64(bound))
	}
	w.Flush()
	fmt.Println("\nflooding stays comfortably inside O(D·Fprog + r·k·Fack) at every r —")
	fmt.Println("locality of unreliability, not its quantity, is what keeps BMMB fast.")
}
