package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"amac/internal/graph"
)

func TestPointDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := a.Dist(b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Fatalf("Dist(a,a) = %v", d)
	}
}

func TestUnitDiskLine(t *testing.T) {
	e := LinePoints(5, 1.0)
	g := e.UnitDisk(1.0)
	for i := 0; i < 4; i++ {
		if !g.HasEdge(graph.NodeID(i), graph.NodeID(i+1)) {
			t.Fatalf("missing line edge %d-%d", i, i+1)
		}
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected edge 0-2 at distance 2")
	}
	if g.Diameter() != 4 {
		t.Fatalf("Diameter = %d, want 4", g.Diameter())
	}
}

func TestGreyZoneConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := RandomUniform(60, 6, rng)
	g := e.UnitDisk(1.0)
	c := 2.0
	gp := e.GreyZone(c, 0.5, rng)
	if !e.VerifyGreyZone(g, gp, c) {
		t.Fatal("generated grey zone dual violates the constraint")
	}
	// Densest grey zone: p = 1.
	gpFull := e.GreyZone(c, 1.0, rng)
	if !e.VerifyGreyZone(g, gpFull, c) {
		t.Fatal("full grey zone dual violates the constraint")
	}
	if gpFull.M() < gp.M() {
		t.Fatal("p=1 grey zone has fewer edges than p=0.5")
	}
}

func TestVerifyGreyZoneRejects(t *testing.T) {
	e := LinePoints(4, 1.0)
	g := e.UnitDisk(1.0)
	// Add a too-long edge to G': 0 to 3 has length 3 > c = 2.
	bad := g.Clone()
	bad.AddEdge(0, 3)
	if e.VerifyGreyZone(g, bad, 2.0) {
		t.Fatal("VerifyGreyZone accepted an over-length G' edge")
	}
	// G missing a unit edge.
	gBad := graph.New(4)
	if e.VerifyGreyZone(gBad, g, 2.0) {
		t.Fatal("VerifyGreyZone accepted a non-unit-disk G")
	}
}

func TestPackingBoundLemma42(t *testing.T) {
	// Generate random point sets with pairwise distance > 1 and diameter <= d;
	// their size must never exceed PackingBound(d).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1.0 + rng.Float64()*4
		var pts []Point
		// Greedy packing attempt.
		for tries := 0; tries < 2000 && len(pts) < 500; tries++ {
			cand := Point{X: rng.Float64() * d, Y: rng.Float64() * d}
			ok := true
			for _, p := range pts {
				if p.Dist(cand) <= 1 {
					ok = false
					break
				}
			}
			if ok {
				pts = append(pts, cand)
			}
		}
		// All pairwise distances are in (1, d*sqrt2]; use that diameter.
		diam := 0.0
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if dd := pts[i].Dist(pts[j]); dd > diam {
					diam = dd
				}
			}
		}
		return len(pts) <= PackingBound(diam)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIsPackedIndependentSet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := RandomUniform(80, 8, rng)
	g := e.UnitDisk(1.0)
	// Greedy MIS of a unit-disk graph is packed with minSep 1.
	var mis []graph.NodeID
	taken := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		if taken[u] {
			continue
		}
		mis = append(mis, graph.NodeID(u))
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			taken[v] = true
		}
		taken[u] = true
	}
	if !g.IsIndependent(mis) {
		t.Fatal("greedy set not independent")
	}
	if !e.IsPacked(mis, 1.0) {
		t.Fatal("independent set of a unit-disk graph must be 1-packed")
	}
}

func TestGridPoints(t *testing.T) {
	e := GridPoints(3, 4, 1.0)
	if e.N() != 12 {
		t.Fatalf("N = %d", e.N())
	}
	// Node r*cols+c at (c, r).
	if e[5] != (Point{X: 1, Y: 1}) {
		t.Fatalf("e[5] = %v", e[5])
	}
	g := e.UnitDisk(1.0)
	// Interior node has 4 neighbors at spacing 1 (diagonals are sqrt2 > 1).
	if g.Degree(5) != 4 {
		t.Fatalf("grid interior degree = %d, want 4", g.Degree(5))
	}
}

func TestTwoLinesGeometry(t *testing.T) {
	d := 10
	spacing, dy := 1.0, 0.8
	e := TwoLines(d, spacing, dy)
	if e.N() != 2*d {
		t.Fatalf("N = %d", e.N())
	}
	g := e.UnitDisk(1.0)
	// Within-line edges exist.
	if !g.HasEdge(0, 1) || !g.HasEdge(graph.NodeID(d), graph.NodeID(d+1)) {
		t.Fatal("missing intra-line edges")
	}
	// The diagonal (a_i, b_{i+1}) has length sqrt(1+0.64) ≈ 1.28 > 1: not in G.
	if g.HasEdge(0, graph.NodeID(d+1)) {
		t.Fatal("diagonal should not be reliable")
	}
	// But it is within c = 1.5 so a grey zone G' may include it.
	diag := e.Dist(0, graph.NodeID(d+1))
	if diag <= 1 || diag > 1.5 {
		t.Fatalf("diagonal length %v outside (1, 1.5]", diag)
	}
}

func TestRandomUniformDeterministic(t *testing.T) {
	a := RandomUniform(10, 5, rand.New(rand.NewSource(1)))
	b := RandomUniform(10, 5, rand.New(rand.NewSource(1)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different embeddings")
		}
	}
}

func TestGreyZoneBadC(t *testing.T) {
	for _, c := range []float64{0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("c = %g did not panic", c)
				}
			}()
			LinePoints(3, 1).GreyZone(c, 1, rand.New(rand.NewSource(1)))
		}()
	}
}
