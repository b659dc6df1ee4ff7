package topology

import (
	"fmt"
	"math"

	"amac/internal/geom"
	"amac/internal/graph"
)

// ParallelLinesC is the lower-bound network C of Figure 2 (Section 3.3):
// two disjoint reliable lines A = a₁..a_D and B = b₁..b_D, with unreliable
// cross edges (aᵢ, bᵢ₊₁) and (bᵢ, aᵢ₊₁) for i < D. It exposes the node
// numbering the proof uses.
type ParallelLinesC struct {
	*Dual
	D int
}

// A returns the node ID of aᵢ, 1-indexed as in the paper (i ∈ [1, D]).
func (c *ParallelLinesC) A(i int) graph.NodeID {
	if i < 1 || i > c.D {
		panic(fmt.Sprintf("topology: a_%d out of range [1,%d]", i, c.D))
	}
	return graph.NodeID(i - 1)
}

// B returns the node ID of bᵢ, 1-indexed as in the paper (i ∈ [1, D]).
func (c *ParallelLinesC) B(i int) graph.NodeID {
	if i < 1 || i > c.D {
		panic(fmt.Sprintf("topology: b_%d out of range [1,%d]", i, c.D))
	}
	return graph.NodeID(c.D + i - 1)
}

// NewParallelLinesC builds network C with line length d ≥ 2. The embedding
// places the lines at unit spacing with vertical offset 1.05, so vertical
// pairs (aᵢ, bᵢ) sit just outside the unit disk (G has only the two lines)
// and each cross diagonal has length √(1 + 1.1025) ≈ 1.45: strictly greater
// than 1 (not reliable) and at most c for any grey-zone constant c ≥ 1.45,
// matching the paper's observation that C is grey-zone restricted for a
// sufficiently large constant c.
func NewParallelLinesC(d int) *ParallelLinesC {
	return NewParallelLinesCInto(nil, d)
}

// NewParallelLinesCInto is NewParallelLinesC emitting both graphs into ws
// storage (see Workspace); a nil ws allocates fresh.
func NewParallelLinesCInto(ws *Workspace, d int) *ParallelLinesC {
	if d < 2 {
		panic("topology: parallel lines need d >= 2")
	}
	const dy = 1.05
	embed := geom.TwoLines(d, 1.0, dy)
	var edges [][2]graph.NodeID
	for i := 0; i < d-1; i++ {
		a, b := graph.NodeID(i), graph.NodeID(d+i)
		edges = append(edges, [2]graph.NodeID{a, a + 1}, [2]graph.NodeID{b, b + 1}) // lines A and B
	}
	g := ws.Graph(2 * d)
	g.SetEdges(2*d, edges)
	for i := 0; i < d-1; i++ {
		a, b := graph.NodeID(i), graph.NodeID(d+i)
		edges = append(edges, [2]graph.NodeID{a, b + 1}, [2]graph.NodeID{b, a + 1}) // a_i — b_{i+1}, b_i — a_{i+1}
	}
	gp := ws.Graph(2 * d)
	gp.SetEdges(2*d, edges)
	return &ParallelLinesC{
		Dual: &Dual{
			G:      g,
			GPrime: gp,
			Embed:  embed,
			Name:   fmt.Sprintf("parallel-lines-C(D=%d)", d),
		},
		D: d,
	}
}

// GreyZoneConstant returns the smallest grey-zone constant c for which the
// network's G′ edges are all within length c under its embedding.
func (c *ParallelLinesC) GreyZoneConstant() float64 {
	max := 1.0
	for u, v := range c.GPrime.EdgeSeq() {
		if l := c.Embed.Dist(u, v); l > max {
			max = l
		}
	}
	return math.Ceil(max*100) / 100
}

// StarChoke is the Lemma 3.18 network: k source nodes u₁..u_{k-1} all
// adjacent to the hub u_k, which is the only bridge to the receiver v.
// G′ = G. Every message must funnel through the hub, inducing Ω(k·Fack).
type StarChoke struct {
	*Dual
	K int
}

// Source returns the node ID of uᵢ for i ∈ [1, k−1].
func (s *StarChoke) Source(i int) graph.NodeID {
	if i < 1 || i >= s.K {
		panic(fmt.Sprintf("topology: source u_%d out of range [1,%d)", i, s.K))
	}
	return graph.NodeID(i - 1)
}

// Hub returns the node ID of u_k, the choke point.
func (s *StarChoke) Hub() graph.NodeID { return graph.NodeID(s.K - 1) }

// Receiver returns the node ID of v, the node behind the choke point.
func (s *StarChoke) Receiver() graph.NodeID { return graph.NodeID(s.K) }

// NewStarChoke builds the Lemma 3.18 network for k ≥ 2 messages: nodes
// 0..k-2 are the leaf sources, node k-1 is the hub u_k (also a source), and
// node k is the receiver v. Total k+1 nodes.
func NewStarChoke(k int) *StarChoke {
	if k < 2 {
		panic("topology: star choke needs k >= 2")
	}
	hub := graph.NodeID(k - 1)
	edges := [][2]graph.NodeID{{hub, graph.NodeID(k)}}
	for i := 0; i < k-1; i++ {
		edges = append(edges, [2]graph.NodeID{graph.NodeID(i), hub})
	}
	g := fromEdges(k+1, edges)
	return &StarChoke{
		Dual: &Dual{
			G:      g,
			GPrime: g.Clone(),
			Name:   fmt.Sprintf("star-choke(k=%d)", k),
		},
		K: k,
	}
}
