// Package geom provides the Euclidean-plane machinery behind the paper's
// grey zone constraint (Section 2): node embeddings p : V → R², unit-disk
// reliable graphs (edge iff distance ≤ 1), grey-zone unreliable graphs
// (E′ edges only between nodes at distance ≤ c for a universal constant
// c ≥ 1), and the sphere-packing bound (Lemma 4.2) used throughout the
// analysis of FMMB.
package geom

import (
	"math"
	"math/rand"
	"slices"

	"amac/internal/graph"
)

// Point is a position in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance ‖p − q‖₂.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Embedding assigns plane positions to nodes 0..n-1.
type Embedding []Point

// N returns the number of embedded nodes.
func (e Embedding) N() int { return len(e) }

// Dist returns the distance between nodes u and v under the embedding.
func (e Embedding) Dist(u, v graph.NodeID) float64 {
	return e[u].Dist(e[v])
}

// UnitDisk builds the reliable graph G of the grey zone model: nodes u ≠ v
// are adjacent iff their distance is at most radius. The paper normalizes
// radius to 1.
func (e Embedding) UnitDisk(radius float64) *graph.Graph {
	return e.UnitDiskInto(graph.New(len(e)), radius)
}

// UnitDiskInto is UnitDisk emitting into g (reset first, keeping its
// adjacency storage — see graph.Reset) and returns g. Past
// cellGridMinNodes the candidate pairs come from a cell-grid bucketing of
// the embedding instead of the all-pairs scan, in cell order rather than
// increasing v; only the edge set matters here, and it is identical.
func (e Embedding) UnitDiskInto(g *graph.Graph, radius float64) *graph.Graph {
	g.Reset(len(e))
	if len(e) >= cellGridMinNodes && radius > 0 {
		var cg cellGrid
		cg.build(e, radius)
		for u := 0; u < len(e); u++ {
			for _, v := range cg.candidates(e, graph.NodeID(u)) {
				if e[u].Dist(e[v]) <= radius {
					g.AddEdge(graph.NodeID(u), v)
				}
			}
		}
		return g
	}
	for u := 0; u < len(e); u++ {
		for v := u + 1; v < len(e); v++ {
			if e[u].Dist(e[v]) <= radius {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return g
}

// GreyZone builds an unreliable graph G′ for the embedding: it contains
// every unit-disk edge (distance ≤ 1) plus each candidate grey-zone edge
// (distance in (1, c]) independently with probability p, drawn from rng.
// With p = 1 the result is the densest legal grey-zone G′. The result
// always satisfies the paper's grey zone constraint: E ⊆ E′ and every E′
// edge has length ≤ c.
func (e Embedding) GreyZone(c, p float64, rng *rand.Rand) *graph.Graph {
	return e.GreyZoneInto(graph.New(len(e)), c, p, rng)
}

// GreyZoneInto is GreyZone emitting into g (reset first, keeping its
// adjacency storage) and returns g. One variate is drawn per grey pair
// (1 < d ≤ c, only when p < 1), in (u, v)-lexicographic order on both the
// all-pairs scan and the cell-grid path past cellGridMinNodes, so equal
// seeds yield equal graphs whichever path runs.
func (e Embedding) GreyZoneInto(g *graph.Graph, c, p float64, rng *rand.Rand) *graph.Graph {
	if c < 1 {
		panic("geom: grey zone constant c must be >= 1")
	}
	g.Reset(len(e))
	if len(e) >= cellGridMinNodes {
		// Cell-grid path: candidates(u) is every v > u in u's 3×3 cell
		// block, a superset of the pairs at distance ≤ c, in cell order.
		// Pairs at d ≤ 1 need no draw and are added at once. The scan
		// below draws from rng only for grey pairs (1 < d ≤ c, p < 1), in
		// increasing v, so those alone are collected and sorted before
		// drawing, and the random stream is consumed identically on both
		// paths.
		var cg cellGrid
		cg.build(e, c)
		var grey []graph.NodeID
		for u := 0; u < len(e); u++ {
			grey = grey[:0]
			for _, v := range cg.candidates(e, graph.NodeID(u)) {
				d := e[u].Dist(e[v])
				switch {
				case d <= 1, d <= c && p >= 1:
					g.AddEdge(graph.NodeID(u), v)
				case d <= c:
					grey = append(grey, v)
				}
			}
			slices.Sort(grey)
			for _, v := range grey {
				if rng.Float64() < p {
					g.AddEdge(graph.NodeID(u), v)
				}
			}
		}
		return g
	}
	for u := 0; u < len(e); u++ {
		for v := u + 1; v < len(e); v++ {
			d := e[u].Dist(e[v])
			switch {
			case d <= 1:
				g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			case d <= c && (p >= 1 || rng.Float64() < p):
				g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return g
}

// VerifyGreyZone checks the grey zone constraint of Section 2 for a dual
// (g, gp) against the embedding: (1) g is exactly the unit-disk graph of the
// embedding, and (2) every gp edge has length at most c. It returns false if
// either property fails.
func (e Embedding) VerifyGreyZone(g, gp *graph.Graph, c float64) bool {
	if g.N() != len(e) || gp.N() != len(e) {
		return false
	}
	for u := 0; u < len(e); u++ {
		for v := u + 1; v < len(e); v++ {
			d := e[u].Dist(e[v])
			if (d <= 1) != g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				return false
			}
		}
	}
	for u, v := range gp.EdgeSeq() {
		if e.Dist(u, v) > c {
			return false
		}
	}
	return g.IsSubgraphOf(gp)
}

// PackingBound returns the sphere-packing cap of Lemma 4.2: the maximum
// cardinality of a point set with pairwise distances in (1, d]. A disk of
// radius d + 1/2 contains disjoint radius-1/2 disks around each point, so
// the count is at most (2d + 1)². The paper only needs O(d²).
func PackingBound(d float64) int {
	if d < 0 {
		return 0
	}
	r := 2*d + 1
	return int(math.Ceil(r * r))
}

// IsPacked reports whether the points at the given node IDs have pairwise
// distances strictly greater than minSep (the premise of Lemma 4.2 with
// minSep = 1 holds for any G-independent set under a unit-disk G).
func (e Embedding) IsPacked(ids []graph.NodeID, minSep float64) bool {
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if e.Dist(ids[i], ids[j]) <= minSep {
				return false
			}
		}
	}
	return true
}

// RandomUniform places n points uniformly at random in the side×side square.
func RandomUniform(n int, side float64, rng *rand.Rand) Embedding {
	return RandomUniformInto(make(Embedding, n), n, side, rng)
}

// RandomUniformInto is RandomUniform filling e's storage (grown only when
// its capacity is short of n) and returns the n-point embedding. The rng is
// drawn exactly as RandomUniform draws it.
func RandomUniformInto(e Embedding, n int, side float64, rng *rand.Rand) Embedding {
	if cap(e) < n {
		e = make(Embedding, n)
	} else {
		e = e[:n]
	}
	for i := range e {
		e[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return e
}

// GridPoints places nodes on a rows×cols grid with the given spacing,
// row-major: node r*cols+c sits at (c*spacing, r*spacing). With spacing ≤ 1
// the unit-disk graph contains the 4-neighbor grid.
func GridPoints(rows, cols int, spacing float64) Embedding {
	e := make(Embedding, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			e = append(e, Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return e
}

// LinePoints places n nodes on a horizontal line with the given spacing.
func LinePoints(n int, spacing float64) Embedding {
	e := make(Embedding, n)
	for i := range e {
		e[i] = Point{X: float64(i) * spacing}
	}
	return e
}

// TwoLines places 2D nodes as in the paper's Figure 2 lower-bound network:
// nodes 0..D-1 form line A at y = 0, nodes D..2D-1 form line B at y = dy,
// both with the given x spacing. Choosing spacing ≤ 1 and dy such that the
// diagonal sqrt(spacing² + dy²) lies in (1, c] realizes the grey-zone
// geometry of the construction.
func TwoLines(d int, spacing, dy float64) Embedding {
	e := make(Embedding, 0, 2*d)
	for i := 0; i < d; i++ {
		e = append(e, Point{X: float64(i) * spacing, Y: 0})
	}
	for i := 0; i < d; i++ {
		e = append(e, Point{X: float64(i) * spacing, Y: dy})
	}
	return e
}
