// Package topology builds the dual-graph networks (G, G′) the paper's model
// runs on: G carries the reliable links, G′ ⊇ G adds the unreliable ones
// (Section 2). It provides generators for every G′ regime the paper studies
// — G′ = G, r-restricted, grey-zone and arbitrary — plus the two
// lower-bound constructions: the star choke network of Lemma 3.18 and the
// parallel-lines network C of Figure 2.
package topology

import (
	"fmt"
	"math/rand"

	"amac/internal/geom"
	"amac/internal/graph"
)

// Dual is a dual-graph network: reliable graph G and unreliable graph
// GPrime with G ⊆ G′ over the same node set. An optional plane embedding is
// attached when the network was built geometrically (grey zone networks),
// and Name records the generator for reporting.
type Dual struct {
	G      *graph.Graph
	GPrime *graph.Graph
	Embed  geom.Embedding // nil unless geometrically constructed
	Name   string
}

// N returns the number of nodes.
func (d *Dual) N() int { return d.G.N() }

// Validate checks the structural invariant of the model: same node count
// and E ⊆ E′. It returns an error describing the first violation.
func (d *Dual) Validate() error {
	if d.G == nil || d.GPrime == nil {
		return fmt.Errorf("topology: nil graph in dual %q", d.Name)
	}
	if d.G.N() != d.GPrime.N() {
		return fmt.Errorf("topology: dual %q has |V(G)|=%d but |V(G')|=%d",
			d.Name, d.G.N(), d.GPrime.N())
	}
	if !d.G.IsSubgraphOf(d.GPrime) {
		return fmt.Errorf("topology: dual %q violates E ⊆ E'", d.Name)
	}
	return nil
}

// UnreliableEdges returns the E′ \ E edges (pairs with u < v).
func (d *Dual) UnreliableEdges() [][2]graph.NodeID {
	var out [][2]graph.NodeID
	for u, v := range d.GPrime.EdgeSeq() {
		if !d.G.HasEdge(u, v) {
			out = append(out, [2]graph.NodeID{u, v})
		}
	}
	return out
}

// IsRRestricted reports whether every G′ edge connects nodes within r hops
// in G (the r-restricted constraint of Section 2).
func (d *Dual) IsRRestricted(r int) bool {
	for u := 0; u < d.G.N(); u++ {
		dist := d.G.BFS(graph.NodeID(u))
		for _, v := range d.GPrime.Neighbors(graph.NodeID(u)) {
			if v < graph.NodeID(u) {
				continue
			}
			if dist[v] == graph.Unreachable || dist[v] > r {
				return false
			}
		}
	}
	return true
}

// Restriction returns the smallest r for which the dual is r-restricted, or
// -1 if some G′ edge joins nodes disconnected in G (so no r suffices).
func (d *Dual) Restriction() int {
	r := 0
	for u := 0; u < d.G.N(); u++ {
		dist := d.G.BFS(graph.NodeID(u))
		for _, v := range d.GPrime.Neighbors(graph.NodeID(u)) {
			if dist[v] == graph.Unreachable {
				return -1
			}
			if dist[v] > r {
				r = dist[v]
			}
		}
	}
	return r
}

// Diameter returns the diameter D of the reliable graph G.
func (d *Dual) Diameter() int { return d.G.Diameter() }

// Reliable wraps a graph as the dual with G′ = G (the no-unreliability
// regime of [30]).
func Reliable(g *graph.Graph, name string) *Dual {
	return &Dual{G: g, GPrime: g.Clone(), Name: name}
}

// Line returns a path of n nodes with G′ = G. Its diameter is n−1.
func Line(n int) *Dual {
	return Reliable(lineInto(nil, n), fmt.Sprintf("line(n=%d)", n))
}

// lineInto builds the n-node path graph into ws storage — the one source of
// truth for every line-shaped G (Line, LineRRestrictedInto, noisy-line).
func lineInto(ws *Workspace, n int) *graph.Graph {
	g := ws.Graph(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return g
}

// Ring returns a cycle of n ≥ 3 nodes with G′ = G.
func Ring(n int) *Dual {
	if n < 3 {
		panic("topology: ring needs at least 3 nodes")
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return Reliable(g, fmt.Sprintf("ring(n=%d)", n))
}

// Star returns a star with center node 0 and n−1 leaves, G′ = G.
func Star(n int) *Dual {
	if n < 2 {
		panic("topology: star needs at least 2 nodes")
	}
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, graph.NodeID(i))
	}
	return Reliable(g, fmt.Sprintf("star(n=%d)", n))
}

// Grid returns a rows×cols 4-neighbor grid with G′ = G, embedded at unit
// spacing.
func Grid(rows, cols int) *Dual {
	e := geom.GridPoints(rows, cols, 1.0)
	g := e.UnitDisk(1.0)
	return &Dual{
		G:      g,
		GPrime: g.Clone(),
		Embed:  e,
		Name:   fmt.Sprintf("grid(%dx%d)", rows, cols),
	}
}

// CompleteBinaryTree returns a complete binary tree with n nodes (node i's
// children are 2i+1 and 2i+2), G′ = G.
func CompleteBinaryTree(n int) *Dual {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i-1)/2))
	}
	return Reliable(g, fmt.Sprintf("tree(n=%d)", n))
}

// RRestricted builds an r-restricted dual from g: G′ starts as a copy of G
// and gains each Gʳ \ G candidate edge independently with probability p.
// The result is r-restricted by construction (Section 2).
func RRestricted(g *graph.Graph, r int, p float64, rng *rand.Rand, name string) *Dual {
	return RRestrictedInto(nil, g, r, p, rng, name)
}

// RRestrictedInto is RRestricted emitting G′ (and the Gʳ scratch) into ws
// storage; a nil ws allocates fresh. The candidate edges are streamed off
// the Gʳ scratch's CSR rows (graph.EdgeSeq) in the same lexicographic
// order the materialized Edges slice was walked in, so the rng is drawn
// exactly as RRestricted always has and equal seeds yield equal duals on
// both paths — without the [][2]NodeID intermediate, which at n=10⁵ was
// the largest single allocation of a build.
func RRestrictedInto(ws *Workspace, g *graph.Graph, r int, p float64, rng *rand.Rand, name string) *Dual {
	gp := g.CloneInto(ws.Graph(g.N()))
	power := g.PowerInto(r, ws.Graph(g.N()))
	for u, v := range power.EdgeSeq() {
		if g.HasEdge(u, v) {
			continue
		}
		if p >= 1 || rng.Float64() < p {
			gp.AddEdge(u, v)
		}
	}
	return &Dual{G: g, GPrime: gp, Name: name}
}

// PodsRRestrictedInto builds the multi-component sharding workload: G is k
// disjoint line "pods" covering n nodes (pod i owns the contiguous range
// [i·n/k, (i+1)·n/k)), and G′ adds r-restricted noise with probability p.
// Gʳ never crosses a component, so every G′ edge stays inside its pod and
// the dual decomposes into exactly k G′-components — the regime where
// component-sharded execution parallelizes with no cross-shard events.
func PodsRRestrictedInto(ws *Workspace, n, k, r int, p float64, rng *rand.Rand) *Dual {
	if k < 1 || k > n {
		panic("topology: pods needs 1 <= k <= n")
	}
	g := ws.Graph(n)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		for v := lo; v < hi-1; v++ {
			g.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
		}
	}
	return RRestrictedInto(ws, g, r, p, rng,
		fmt.Sprintf("pods(n=%d,k=%d,r=%d,p=%.2f)", n, k, r, p))
}

// LineRRestricted is the workload used for the Theorem 3.2 experiments: a
// line G with an r-restricted G′ carrying a p fraction of the legal noise
// edges.
func LineRRestricted(n, r int, p float64, rng *rand.Rand) *Dual {
	return LineRRestrictedInto(nil, n, r, p, rng)
}

// LineRRestrictedInto is LineRRestricted built from ws storage.
func LineRRestrictedInto(ws *Workspace, n, r int, p float64, rng *rand.Rand) *Dual {
	return RRestrictedInto(ws, lineInto(ws, n), r, p, rng,
		fmt.Sprintf("line-rrestricted(n=%d,r=%d,p=%.2f)", n, r, p))
}

// ArbitraryNoise builds the arbitrary-G′ workload of Theorem 3.1: G′ is G
// plus extra long-range edges drawn uniformly over all non-adjacent pairs.
// No restriction constrains how far these edges reach in G.
func ArbitraryNoise(g *graph.Graph, extra int, rng *rand.Rand, name string) *Dual {
	return ArbitraryNoiseInto(nil, g, extra, rng, name)
}

// ArbitraryNoiseInto is ArbitraryNoise emitting G′ into ws storage.
func ArbitraryNoiseInto(ws *Workspace, g *graph.Graph, extra int, rng *rand.Rand, name string) *Dual {
	gp := g.CloneInto(ws.Graph(g.N()))
	n := g.N()
	added := 0
	for tries := 0; added < extra && tries < 50*extra+100; tries++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || gp.HasEdge(u, v) {
			continue
		}
		gp.AddEdge(u, v)
		added++
	}
	return &Dual{G: g, GPrime: gp, Name: name}
}

// RandomGeometric builds a grey-zone dual: n nodes uniform in a side×side
// square, G the unit-disk graph, G′ adding each grey-zone candidate
// (distance in (1, c]) with probability p. The embedding is attached. The
// caller should check connectivity of G for experiments that need it.
func RandomGeometric(n int, side, c, p float64, rng *rand.Rand) *Dual {
	return RandomGeometricInto(nil, n, side, c, p, rng)
}

// RandomGeometricInto is RandomGeometric emitting the embedding and both
// graphs into ws storage; a nil ws allocates fresh. The rng stream is drawn
// exactly as RandomGeometric draws it. G and G′ come out of one scan of the
// embedding (geom.Embedding.GreyZoneDualInto), with its scratch kept in ws.
func RandomGeometricInto(ws *Workspace, n int, side, c, p float64, rng *rand.Rand) *Dual {
	e := geom.RandomUniformInto(ws.Points(n), n, side, rng)
	g, gp := ws.Graph(n), ws.Graph(n)
	e.GreyZoneDualInto(g, gp, c, p, rng, ws.Scratch())
	return &Dual{
		G:      g,
		GPrime: gp,
		Embed:  e,
		Name:   fmt.Sprintf("rgg(n=%d,side=%.1f,c=%.1f,p=%.2f)", n, side, c, p),
	}
}

// ConnectedRandomGeometric retries RandomGeometric until G is connected,
// up to maxTries attempts. It returns nil if no connected instance is found,
// which signals the density is too low for the parameters.
func ConnectedRandomGeometric(n int, side, c, p float64, rng *rand.Rand, maxTries int) *Dual {
	return ConnectedRandomGeometricInto(nil, n, side, c, p, rng, maxTries)
}

// ConnectedRandomGeometricInto is ConnectedRandomGeometric built from ws
// storage; rejected draws rewind the workspace so every attempt reuses one
// set of graphs.
func ConnectedRandomGeometricInto(ws *Workspace, n int, side, c, p float64, rng *rand.Rand, maxTries int) *Dual {
	mark := ws.Mark()
	for i := 0; i < maxTries; i++ {
		ws.Rewind(mark)
		d := RandomGeometricInto(ws, n, side, c, p, rng)
		if d.G.IsConnected() {
			return d
		}
	}
	return nil
}
