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
	return e.UnitDiskInto(graph.New(len(e)), radius, nil)
}

// UnitDiskInto is UnitDisk emitting into g (reset first, keeping its
// adjacency storage — see graph.Reset) and returns g. It runs the scan
// GreyZoneDualInto runs, with no grey band and no G′ rows. s holds the
// scan's scratch across builds; nil allocates it for this call.
func (e Embedding) UnitDiskInto(g *graph.Graph, radius float64, s *Scratch) *graph.Graph {
	if s == nil {
		s = new(Scratch)
	}
	s.scan(e, radius, radius, 1, nil, false)
	g.SetForward(&s.g)
	return g
}

// GreyZone builds an unreliable graph G′ for the embedding: it contains
// every unit-disk edge (distance ≤ 1) plus each candidate grey-zone edge
// (distance in (1, c]) independently with probability p, drawn from rng.
// With p = 1 the result is the densest legal grey-zone G′. The result
// always satisfies the paper's grey zone constraint: E ⊆ E′ and every E′
// edge has length ≤ c. It is the G′ half of GreyZoneDualInto.
func (e Embedding) GreyZone(c, p float64, rng *rand.Rand) *graph.Graph {
	gp := graph.New(len(e))
	e.GreyZoneDualInto(graph.New(len(e)), gp, c, p, rng, nil)
	return gp
}

// GreyZoneDualInto builds both graphs of the grey-zone dual from one scan of
// the embedding at radius c: g becomes the unit-disk graph G (distance
// ≤ 1) and gp the G′ of GreyZone, both reset first and keeping their
// storage. Each node's forward row (its neighbours v > u) is written in
// ascending v, pairs at d ≤ 1 at once and each grey pair (1 < d ≤ c) after
// its draw, and graph.SetForward turns the rows into CSR. One variate is
// drawn per grey pair, only when p < 1, in (u, v)-lexicographic order on
// both the all-pairs scan and the cell-grid path past cellGridMinNodes, so
// equal seeds yield equal graphs whichever path runs. s holds the scan's
// scratch across builds; nil allocates it for this call.
func (e Embedding) GreyZoneDualInto(g, gp *graph.Graph, c, p float64, rng *rand.Rand, s *Scratch) {
	if !(c >= 1) {
		panic("geom: grey zone constant c must be >= 1")
	}
	if s == nil {
		s = new(Scratch)
	}
	s.scan(e, 1, c, p, rng, true)
	g.SetForward(&s.g)
	gp.SetForward(&s.gp)
}

// Scratch is the reusable storage of the geometric builders: the cell grid,
// one node's candidate keys and the forward rows of G and G′. Builds that
// pass the same Scratch reuse it, so a recycled build grows nothing. The
// zero value is ready to use.
type Scratch struct {
	cg    cellGrid
	keys  []uint64 // one node's in-range candidates as appendPair keys
	g, gp graph.ForwardRows
}

// appendPair appends the key of the pair with node v at distance d if the
// pair lies within outer: v<<1, plus 1 in the band (inner, outer] when grey
// is set, so keys order by v and say which rows take the pair.
func appendPair(keys []uint64, d float64, v int, inner, outer float64, grey bool) []uint64 {
	switch {
	case d <= inner:
		return append(keys, uint64(v)<<1)
	case grey && d <= outer:
		return append(keys, uint64(v)<<1|1)
	}
	return keys
}

// scan writes every node's forward rows from one pass over the pairs within
// outer: s.g gets the pairs at d ≤ inner and, with grey set, s.gp gets them
// too plus each pair at inner < d ≤ outer that p keeps — rng.Float64() < p,
// one variate per such pair in ascending (u, v), none when p ≥ 1. Without
// grey, s.gp is left alone. Past cellGridMinNodes the pairs come from a
// cell grid of side ≥ outer instead of the all-pairs scan; the nine cells
// around a node interleave in v, so its in-range candidates are sorted
// before its row is written.
func (s *Scratch) scan(e Embedding, inner, outer, p float64, rng *rand.Rand, grey bool) {
	n := len(e)
	if n > math.MaxInt32 {
		panic("geom: embedding exceeds int32 node ids")
	}
	s.g.Reset(n)
	if grey {
		s.gp.Reset(n)
	}
	gridded := n >= cellGridMinNodes && n > 0 && outer > 0
	if gridded {
		s.cg.build(e, outer)
	}
	for u := range e {
		keys := s.keys[:0]
		if gridded {
			cx, cy := s.cg.coords(e[u])
			for y := max(cy-1, 0); y <= min(cy+1, s.cg.rows-1); y++ {
				for x := max(cx-1, 0); x <= min(cx+1, s.cg.cols-1); x++ {
					for _, v := range s.cg.tail(x, y, int32(u)) {
						keys = appendPair(keys, e[u].Dist(e[v]), int(v), inner, outer, grey)
					}
				}
			}
			slices.Sort(keys)
		} else {
			for v := u + 1; v < n; v++ {
				keys = appendPair(keys, e[u].Dist(e[v]), v, inner, outer, grey)
			}
		}
		s.keys = keys
		for _, k := range keys {
			v := int32(k >> 1)
			switch {
			case k&1 == 0:
				s.g.Arcs = append(s.g.Arcs, v)
				if grey {
					s.gp.Arcs = append(s.gp.Arcs, v)
				}
			case p >= 1 || rng.Float64() < p:
				s.gp.Arcs = append(s.gp.Arcs, v)
			}
		}
		s.g.EndRow()
		if grey {
			s.gp.EndRow()
		}
	}
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
