package graph_test

import (
	"fmt"
	"math"
	"testing"

	"amac/internal/graph"
	"amac/internal/topology"
)

// TestDiameterMatchesReferenceOnWorkloadNetworks holds Diameter to the
// per-source BFS on the networks whose exact diameter the benchmark
// workloads read: sweep-checked's per-trial rgg draws (200 nodes, side 6,
// seeds 1–4) and fmmb-enhanced's 1,000-node rgg at expected degree 4·ln n,
// both G and G′, each from a fresh copy so no memo answers.
func TestDiameterMatchesReferenceOnWorkloadNetworks(t *testing.T) {
	type network struct {
		name   string
		params topology.Params
	}
	var nets []network
	for seed := 1; seed <= 4; seed++ {
		nets = append(nets, network{fmt.Sprintf("sweep-checked rgg seed %d", seed),
			topology.Params{"n": 200, "side": 6, "c": 1.6, "p": 0.5, "seed": float64(seed)}})
	}
	nets = append(nets, network{"fmmb-enhanced rgg",
		topology.Params{"n": 1000, "side": math.Sqrt(math.Pi * 1000 / (4 * math.Log(1000))),
			"c": 1.6, "p": 0.5, "seed": 424200}})
	for _, nw := range nets {
		b, err := topology.Build("rgg", nw.params)
		if err != nil {
			t.Fatalf("%s: %v", nw.name, err)
		}
		for _, g := range []*graph.Graph{b.Dual.G, b.Dual.GPrime} {
			fresh := new(graph.Graph)
			fresh.SetEdges(g.N(), g.Edges())
			if got, want := fresh.Diameter(), graph.RefDiameter(g); got != want {
				t.Errorf("%s (n=%d, m=%d): Diameter = %d, per-source BFS %d", nw.name, g.N(), g.M(), got, want)
			}
		}
	}
}
