// Package topology builds the dual-graph networks (G, G′) the paper's model
// runs on: G carries the reliable links, G′ ⊇ G adds the unreliable ones
// (Section 2). It provides generators for every G′ regime the paper studies
// — G′ = G, r-restricted, grey-zone and arbitrary — plus the two
// lower-bound constructions: the star choke network of Lemma 3.18 and the
// parallel-lines network C of Figure 2.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"amac/internal/geom"
	"amac/internal/graph"
)

// Dual is a dual-graph network: reliable graph G and unreliable graph
// GPrime with G ⊆ G′ over the same node set. An optional plane embedding is
// attached when the network was built geometrically (grey zone networks),
// and Name records the generator for reporting. Only NewDual makes a valid
// one: it checks the invariant once and records which G′ arcs are G edges,
// so no consumer walks the two graphs against each other again.
type Dual struct {
	G      *graph.Graph
	GPrime *graph.Graph
	Embed  geom.Embedding // nil unless geometrically constructed
	Name   string

	// g and gp are the graphs NewDual checked, m and mp their edge counts
	// then, and reliable their reliability words (see ReliableArcs).
	g, gp    *graph.Graph
	m, mp    int
	reliable []uint64
}

// NewDual makes the dual (g, gp), checking the model's invariant — no nil
// graph, equal node counts and E ⊆ E′ — and returning an error describing
// the first violation. One merge walk of each node's G and G′ rows checks
// E ⊆ E′ and sets the reliability bit of every G′ arc that is also a G
// edge; when gp is g itself (G′ = G) the walk sets every bit.
//
// The dual holds g and gp themselves, not copies, so rebuilding either
// afterwards (graph.SetEdges, SetForward or Reset, or a later build into
// the Workspace the dual came from) leaves its reliability bits stale and
// the dual unusable. Validate reports a rebuild that changed either edge
// count; one that kept both is not detected.
func NewDual(g, gp *graph.Graph, name string) (*Dual, error) {
	return newDual(nil, g, gp, name)
}

// newDual is NewDual with the reliability words taken from ws (see
// Workspace.reliableWords).
func newDual(ws *Workspace, g, gp *graph.Graph, name string) (*Dual, error) {
	if g == nil || gp == nil {
		return nil, fmt.Errorf("topology: nil graph in dual %q", name)
	}
	if g.N() != gp.N() {
		return nil, fmt.Errorf("topology: dual %q has |V(G)|=%d but |V(G')|=%d", name, g.N(), gp.N())
	}
	gOff, gArcs := g.CSR()
	pOff, pArcs := gp.CSR()
	bits := ws.reliableWords((len(pArcs) + 63) / 64)
	for u := 0; u < g.N(); u++ {
		pi, pe := pOff[u], pOff[u+1]
		for _, v := range gArcs[gOff[u]:gOff[u+1]] {
			for pi < pe && pArcs[pi] < v {
				pi++
			}
			if pi == pe || pArcs[pi] != v {
				return nil, fmt.Errorf("topology: dual %q violates E ⊆ E'", name)
			}
			bits[pi>>6] |= 1 << (pi & 63)
			pi++
		}
	}
	return &Dual{G: g, GPrime: gp, Name: name, g: g, gp: gp, m: g.M(), mp: gp.M(), reliable: bits}, nil
}

// mustDual is newDual for the builders, whose duals hold the invariant by
// construction: a violation is a bug in the builder.
func mustDual(ws *Workspace, g, gp *graph.Graph, name string) *Dual {
	d, err := newDual(ws, g, gp, name)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// N returns the number of nodes.
func (d *Dual) N() int { return d.G.N() }

// Validate reports an error unless d was made by NewDual for the G and
// GPrime it holds now — a hand-built Dual, or one whose graphs were swapped
// afterwards, has no checked invariant and no reliability bits — and
// neither graph's edge count has changed since. It does no walk: NewDual
// checked the invariant, and a rebuild that keeps both edge counts goes
// unnoticed (see NewDual).
func (d *Dual) Validate() error {
	if d.g == nil || d.g != d.G || d.gp != d.GPrime {
		return fmt.Errorf("topology: dual %q was not made by NewDual", d.Name)
	}
	if d.G.M() != d.m || d.GPrime.M() != d.mp {
		return fmt.Errorf("topology: dual %q was rebuilt after NewDual", d.Name)
	}
	return nil
}

// ReliableArcs returns the dual's reliability words: bit i (word i/64, bit
// i%64) is set when arc i of GPrime's flat arc array (graph.CSR) is also a
// G edge, and the bits past the last arc are clear. mac.Arena indexes its
// delivery rows by the same arc positions. The words are owned by the dual
// (by its workspace, when built into one) and must not be mutated.
func (d *Dual) ReliableArcs() []uint64 { return d.reliable }

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

// Reliable wraps a graph as the dual with G′ = G (the no-unreliability
// regime of [30]): GPrime is g itself, so no copy of G is held.
func Reliable(g *graph.Graph, name string) *Dual {
	return mustDual(nil, g, g, name)
}

// Line returns a path of n nodes with G′ = G. Its diameter is n−1.
func Line(n int) *Dual {
	return Reliable(linesInto(nil, n, 1), fmt.Sprintf("line(n=%d)", n))
}

// linesInto builds k disjoint paths covering n nodes into ws storage, path
// i on the contiguous range [i·n/k, (i+1)·n/k): the one source of truth for
// every line-shaped G (Line, LineRRestrictedInto, noisy-line with k = 1, the
// pods with k > 1). It writes each node's forward row, its successor on its
// path if it has one.
func linesInto(ws *Workspace, n, k int) *graph.Graph {
	rows, _ := ws.forwardRows()
	rows.Reset(n)
	for i := 0; i < k; i++ {
		hi := (i + 1) * n / k
		for v := i * n / k; v < hi; v++ {
			if v+1 < hi {
				rows.Arcs = append(rows.Arcs, int32(v+1))
			}
			rows.EndRow()
		}
	}
	g := ws.Graph(n)
	g.SetForward(rows)
	return g
}

// fromEdges returns a new n-node graph with the given edges (see
// graph.SetEdges).
func fromEdges(n int, edges [][2]graph.NodeID) *graph.Graph {
	g := new(graph.Graph)
	g.SetEdges(n, edges)
	return g
}

// Ring returns a cycle of n ≥ 3 nodes with G′ = G.
func Ring(n int) *Dual {
	if n < 3 {
		panic("topology: ring needs at least 3 nodes")
	}
	edges := make([][2]graph.NodeID, n)
	for i := range edges {
		edges[i] = [2]graph.NodeID{graph.NodeID(i), graph.NodeID((i + 1) % n)}
	}
	return Reliable(fromEdges(n, edges), fmt.Sprintf("ring(n=%d)", n))
}

// Star returns a star with center node 0 and n−1 leaves, G′ = G.
func Star(n int) *Dual {
	if n < 2 {
		panic("topology: star needs at least 2 nodes")
	}
	edges := make([][2]graph.NodeID, n-1)
	for i := range edges {
		edges[i] = [2]graph.NodeID{0, graph.NodeID(i + 1)}
	}
	return Reliable(fromEdges(n, edges), fmt.Sprintf("star(n=%d)", n))
}

// Grid returns a rows×cols 4-neighbor grid with G′ = G, embedded at unit
// spacing.
func Grid(rows, cols int) *Dual {
	e := geom.GridPoints(rows, cols, 1.0)
	d := Reliable(e.UnitDisk(1.0), fmt.Sprintf("grid(%dx%d)", rows, cols))
	d.Embed = e
	return d
}

// CompleteBinaryTree returns a complete binary tree with n nodes (node i's
// children are 2i+1 and 2i+2), G′ = G.
func CompleteBinaryTree(n int) *Dual {
	edges := make([][2]graph.NodeID, max(n-1, 0))
	for i := range edges {
		edges[i] = [2]graph.NodeID{graph.NodeID(i + 1), graph.NodeID(i / 2)}
	}
	return Reliable(fromEdges(n, edges), fmt.Sprintf("tree(n=%d)", n))
}

// RRestricted builds an r-restricted dual from g: G′ starts as a copy of G
// and gains each Gʳ \ G candidate edge independently with probability p.
// The result is r-restricted by construction (Section 2).
func RRestricted(g *graph.Graph, r int, p float64, rng *rand.Rand, name string) *Dual {
	return RRestrictedInto(nil, g, r, p, rng, name)
}

// RRestrictedInto is RRestricted emitting G′ into ws storage, with Gʳ's
// forward rows (graph.PowerRows) and G′'s in the workspace's row scratch; a
// nil ws allocates fresh. It walks Gʳ's rows in (u, v) order with G's row
// alongside: a G edge is kept, and every other candidate draws
// rng.Float64() < p (no draw when p ≥ 1), so the rng is drawn in the order
// RRestricted always has, and each kept v lands in G′'s forward row of u in
// ascending order.
func RRestrictedInto(ws *Workspace, g *graph.Graph, r int, p float64, rng *rand.Rand, name string) *Dual {
	n := g.N()
	rows, power := ws.forwardRows()
	g.PowerRows(r, power)
	off, arcs := g.CSR()
	rows.Reset(n)
	for u := 0; u < n; u++ {
		reliable, i := arcs[off[u]:off[u+1]], 0
		for _, v := range power.Arcs[power.Off[u]:power.Off[u+1]] {
			for i < len(reliable) && reliable[i] < graph.NodeID(v) {
				i++
			}
			if i < len(reliable) && reliable[i] == graph.NodeID(v) || p >= 1 || rng.Float64() < p {
				rows.Arcs = append(rows.Arcs, v)
			}
		}
		rows.EndRow()
	}
	gp := ws.Graph(n)
	gp.SetForward(rows)
	return mustDual(ws, g, gp, name)
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
	return RRestrictedInto(ws, linesInto(ws, n, k), r, p, rng,
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
	return RRestrictedInto(ws, linesInto(ws, n, 1), r, p, rng,
		fmt.Sprintf("line-rrestricted(n=%d,r=%d,p=%.2f)", n, r, p))
}

// ArbitraryNoise builds the arbitrary-G′ workload of Theorem 3.1: G′ is G
// plus extra long-range edges drawn uniformly over all non-adjacent pairs.
// No restriction constrains how far these edges reach in G.
func ArbitraryNoise(g *graph.Graph, extra int, rng *rand.Rand, name string) *Dual {
	return ArbitraryNoiseInto(nil, g, extra, rng, name)
}

// ArbitraryNoiseInto is ArbitraryNoise emitting G′ into ws storage. A drawn
// pair is accepted unless it is a self-pair, a G edge or already accepted;
// G′ is G's edges plus the accepted pairs: ws keeps the edge list and the
// set of accepted pairs, and turns the list into forward rows in its row
// scratch (graph.ForwardRows.SetEdges). Drawing stops after 50·extra + 100
// tries (saturating, not overflowing), or as soon as every non-adjacent
// pair is accepted, since no later draw could add one: an extra beyond
// what n nodes hold yields the complete graph instead of a budget of
// hopeless draws.
func ArbitraryNoiseInto(ws *Workspace, g *graph.Graph, extra int, rng *rand.Rand, name string) *Dual {
	n := g.N()
	s := ws.noise()
	for u, v := range g.EdgeSeq() {
		s.edges = append(s.edges, [2]graph.NodeID{u, v})
	}
	want := min(extra, n*(n-1)/2-g.M())
	budget := math.MaxInt
	if extra < (math.MaxInt-100)/50 {
		budget = 50*extra + 100
	}
	added := 0
	for tries := 0; added < want && tries < budget; tries++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		pair := [2]graph.NodeID{min(u, v), max(u, v)}
		if u == v || g.HasEdge(u, v) || s.accepted[pair] {
			continue
		}
		s.accepted[pair] = true
		s.edges = append(s.edges, pair)
		added++
	}
	rows, _ := ws.forwardRows()
	rows.SetEdges(n, s.edges)
	gp := ws.Graph(n)
	gp.SetForward(rows)
	return mustDual(ws, g, gp, name)
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
	return randomGeometricInto(ws, n, side, c, p, rng, false)
}

// randomGeometricInto is RandomGeometricInto, except that with connected
// set it returns nil for a draw whose G is not connected before making the
// dual, so a rejected draw costs no NewDual walk.
func randomGeometricInto(ws *Workspace, n int, side, c, p float64, rng *rand.Rand, connected bool) *Dual {
	e := geom.RandomUniformInto(ws.Points(n), n, side, rng)
	g, gp := ws.Graph(n), ws.Graph(n)
	e.GreyZoneDualInto(g, gp, c, p, rng, ws.Scratch())
	if connected && !g.IsConnected() {
		return nil
	}
	d := mustDual(ws, g, gp, fmt.Sprintf("rgg(n=%d,side=%.1f,c=%.1f,p=%.2f)", n, side, c, p))
	d.Embed = e
	return d
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
		if d := randomGeometricInto(ws, n, side, c, p, rng, true); d != nil {
			return d
		}
	}
	return nil
}
