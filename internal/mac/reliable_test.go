package mac

import (
	"fmt"
	"math/rand"
	"testing"

	"amac/internal/graph"
	"amac/internal/topology"
)

// randomDual draws a small dual from one of the G′ regimes the engine runs
// on: G′ = G, arbitrary long-range noise over a random G, r-restricted
// lines, and grey-zone geometric networks (whose G may be disconnected or
// edgeless).
func randomDual(rng *rand.Rand) *topology.Dual {
	n := 2 + rng.Intn(40)
	switch rng.Intn(4) {
	case 0:
		return topology.Reliable(randomGraph(rng, n), fmt.Sprintf("reliable(n=%d)", n))
	case 1:
		return topology.ArbitraryNoise(randomGraph(rng, n), rng.Intn(2*n), rng, fmt.Sprintf("noise(n=%d)", n))
	case 2:
		return topology.LineRRestricted(n, 1+rng.Intn(3), rng.Float64(), rng)
	default:
		return topology.RandomGeometric(n, 1+4*rng.Float64(), 1.6, rng.Float64(), rng)
	}
}

// randomGraph returns an Erdős–Rényi graph on n nodes with a random edge
// probability.
func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	var edges [][2]graph.NodeID
	p := rng.Float64() / 2
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
			}
		}
	}
	g := new(graph.Graph)
	g.SetEdges(n, edges)
	return g
}

// checkReliableBits asserts the arena's delivery index against d: it
// covers exactly G′'s arcs, and every arc's reliability bit equals
// G.HasEdge — the independent reference Deliver's ack accounting rests on.
func checkReliableBits(t *testing.T, a *Arena, d *topology.Dual) {
	t.Helper()
	if a.Dual() != d {
		t.Fatalf("arena bound to %s, want %s", a.Dual().Name, d.Name)
	}
	if len(a.off) != d.N()+1 || len(a.arcs) != 2*d.GPrime.M() || len(a.reliable) != (len(a.arcs)+63)/64 {
		t.Fatalf("%s: index covers %d rows, %d arcs and %d words, want %d, %d and %d",
			d.Name, len(a.off)-1, len(a.arcs), len(a.reliable), d.N(), 2*d.GPrime.M(), (2*d.GPrime.M()+63)/64)
	}
	for u := 0; u < d.N(); u++ {
		for i := a.off[u]; i < a.off[u+1]; i++ {
			v := a.arcs[i]
			if !d.GPrime.HasEdge(NodeID(u), v) {
				t.Fatalf("%s: index arc %d→%d is not a G′ edge", d.Name, u, v)
			}
			if got, want := a.isReliable(i), d.G.HasEdge(NodeID(u), v); got != want {
				t.Fatalf("%s: arc %d→%d reliability bit %v, G.HasEdge %v", d.Name, u, v, got, want)
			}
		}
	}
}

// TestArenaReliableBitsMatchG is the property test for the arena's
// delivery index over random duals: freshly built, and re-aliased by
// Rebind across a run of larger and smaller networks, every G′ arc's bit
// must equal G.HasEdge.
func TestArenaReliableBitsMatchG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 60; iter++ {
		d := randomDual(rng)
		a := NewArena(d)
		checkReliableBits(t, a, d)
		for rebind := 0; rebind < 3; rebind++ {
			d = randomDual(rng)
			a.Rebind(d)
			checkReliableBits(t, a, d)
		}
	}
}
