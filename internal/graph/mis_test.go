package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedyMISLine(t *testing.T) {
	g := line(7)
	mis := g.GreedyMIS()
	want := []NodeID{0, 2, 4, 6}
	if len(mis) != len(want) {
		t.Fatalf("GreedyMIS = %v, want %v", mis, want)
	}
	for i := range want {
		if mis[i] != want[i] {
			t.Fatalf("GreedyMIS = %v, want %v", mis, want)
		}
	}
	if !g.IsMaximalIndependent(mis) {
		t.Fatal("greedy MIS not maximal independent")
	}
}

// Property: GreedyMIS is always a maximal independent set on random graphs.
func TestGreedyMISProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := fromEdges(n, randomEdges(rng, nil, n, 2*n)...)
		return g.IsMaximalIndependent(g.GreedyMIS())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayLine(t *testing.T) {
	// MIS {0, 2, 4, 6} of a 7-line: with maxDist 3, consecutive members
	// (distance 2) connect, and 0—4 (distance 4) does not... wait distance
	// 0 to 4 is 4 > 3: no edge; 0 to 2 is 2 <= 3: edge.
	g := line(7)
	h, members := g.Overlay([]NodeID{0, 2, 4, 6}, 3)
	if h.N() != 4 {
		t.Fatalf("overlay size = %d", h.N())
	}
	if members[0] != 0 || members[3] != 6 {
		t.Fatalf("members = %v", members)
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(1, 2) || !h.HasEdge(2, 3) {
		t.Fatalf("overlay missing chain edges: %v", h.Edges())
	}
	if h.HasEdge(0, 2) {
		t.Fatal("overlay has an edge between members 4 hops apart")
	}
	if !h.IsConnected() {
		t.Fatal("overlay disconnected")
	}
}

// Property (used implicitly by Lemma 4.8): for a connected graph G and any
// maximal independent set S, the overlay H over S with maxDist = 3 is
// connected, and its diameter is at most that of G.
func TestOverlayMISConnectivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := fromEdges(n, randomEdges(rng, lineEdges(n), n, n/2)...) // a line: connected spine
		mis := g.GreedyMIS()
		h, _ := g.Overlay(mis, 3)
		if !h.IsConnected() {
			return false
		}
		return h.Diameter() <= g.Diameter()+1 // +1 absorbs the single-member case
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayUnsortedInput(t *testing.T) {
	g := line(7)
	h1, m1 := g.Overlay([]NodeID{6, 0, 4, 2}, 3)
	h2, m2 := g.Overlay([]NodeID{0, 2, 4, 6}, 3)
	if h1.M() != h2.M() {
		t.Fatalf("edge counts differ: %d vs %d", h1.M(), h2.M())
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("members differ: %v vs %v", m1, m2)
		}
	}
}
