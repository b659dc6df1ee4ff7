// Package graph provides the undirected-graph machinery the paper's model is
// built on: adjacency graphs over dense integer node IDs, BFS distances,
// diameter, connected components, graph powers Gʳ (Section 3.2 of the
// paper), and independence checks used by the MIS subroutine analysis.
package graph

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"
)

// NodeID identifies a node. Node IDs are dense integers in [0, N).
type NodeID int

// Graph is an undirected simple graph over nodes 0..n-1 stored as one flat
// CSR arc array: off has length n+1 and node u's sorted neighbor row is
// arcs[off[u]:off[u+1]]. One contiguous block for the whole graph — the
// same layout mac.Arena uses for delivery rows — keeps million-node
// adjacency cache-friendly and lets consumers index straight off the shared
// arc array. The zero value is an empty graph with no nodes; use New.
//
// A graph is built in one call, SetForward from forward rows or SetEdges
// from an edge list, and is immutable from then on: any number of
// goroutines may read it at once (the diameter memo takes its own lock).
// Building again into the same graph (Reset, SetForward, SetEdges, or
// CloneInto onto it) recycles its storage for a new network, the way
// topology.Workspace reuses graphs across builds; it invalidates every
// slice read from the old one and must not overlap any reader.
type Graph struct {
	n int
	m int // edge count

	off  []int32  // row offsets, len n+1 (nil only for the zero value)
	arcs []NodeID // flat arc array, rows sorted, concatenated in node order

	// diam memoizes Diameter() under diamMu: finished graphs are shared
	// read-only across harness workers, so the lazy fill must be
	// synchronized. Reset clears it.
	diamMu sync.Mutex
	diam   int
	diamOK bool
	// adiam memoizes ApproxDiameter for the sampling arguments it was
	// computed with, under the same lock and invalidation rule.
	adiam     int
	adiamOK   bool
	adiamK    int
	adiamSeed int64
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, off: make([]int32, n+1)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Reset restores g to an empty graph with n nodes while keeping the backing
// storage of its arc block, so rebuilding a same-shaped graph performs no
// allocation. A Reset graph is observably identical to New(n), only the
// memory is recycled.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("graph: negative node count")
	}
	if cap(g.off) < n+1 {
		g.off = make([]int32, n+1)
	} else {
		g.off = g.off[:n+1]
		clear(g.off)
	}
	g.arcs = g.arcs[:0]
	g.n = n
	g.m = 0
	g.diamOK = false
	g.adiamOK = false
}

// CloneInto copies g into dst, reusing dst's storage (see Reset). It
// returns dst. The graphs must be distinct.
func (g *Graph) CloneInto(dst *Graph) *Graph {
	if dst == g {
		panic("graph: CloneInto onto itself")
	}
	dst.Reset(g.n)
	dst.off = append(dst.off[:0], g.off...)
	dst.arcs = append(dst.arcs[:0], g.arcs...)
	dst.m = g.m
	return dst
}

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) check(v NodeID) {
	if v < 0 || int(v) >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.n))
	}
}

// ForwardRows is an edge set in the form SetForward assembles: row u,
// Arcs[Off[u]:Off[u+1]], lists u's neighbors v > u in strictly ascending
// order. A builder calls Reset, then for each node in turn appends its row
// to Arcs and calls EndRow. Reset keeps the storage, so rows reused build
// after build grow nothing once warm. The zero value is ready to use.
type ForwardRows struct {
	Off  []int32
	Arcs []int32
}

// Reset starts the rows of an n-node graph, keeping the storage.
func (r *ForwardRows) Reset(n int) {
	r.Off = append(slices.Grow(r.Off[:0], n+1), 0)
	r.Arcs = r.Arcs[:0]
}

// EndRow closes the current node's row; the next arcs go to the next node.
func (r *ForwardRows) EndRow() { r.Off = append(r.Off, int32(len(r.Arcs))) }

// SetForward is the CSR assembler every builder ends in: it resets g to
// len(r.Off)−1 nodes (keeping its storage like Reset) and fills the CSR
// block from the forward rows r. One counting transposition places every
// arc: row u receives its back arcs (each w < u whose forward row lists u)
// in ascending w, ahead of its own forward row, so every row comes out
// sorted with no per-row sort. It panics on a row that is out of order or
// out of range, and on more arcs than int32 offsets can address.
func (g *Graph) SetForward(r *ForwardRows) {
	n, off, fwd := len(r.Off)-1, r.Off, r.Arcs
	g.Reset(n)
	need := 2 * int(off[n])
	if need > math.MaxInt32 {
		panic("graph: arc count exceeds int32 offsets")
	}
	// Row sizes, shifted one slot so the prefix sum leaves row u's start in
	// g.off[u]: the forward row, plus one back arc per forward row naming u.
	cnt := g.off
	for u := 0; u < n; u++ {
		row := fwd[off[u]:off[u+1]]
		cnt[u+1] += int32(len(row))
		prev := int32(u)
		for _, v := range row {
			if v <= prev || int(v) >= n {
				panic(fmt.Sprintf("graph: forward row of node %d is not ascending in (%d, %d)", u, u, n))
			}
			cnt[v+1]++
			prev = v
		}
	}
	for u := 0; u < n; u++ {
		cnt[u+1] += cnt[u]
	}
	arcs := g.arcs
	if cap(arcs) < need {
		arcs = make([]NodeID, need)
	} else {
		arcs = arcs[:need]
	}
	// cnt[u] is row u's write cursor and ends at the start of row u+1; the
	// shift below restores the starts. When node u's turn comes, every
	// w < u has written its back arc into row u, so the forward row lands
	// behind them in order.
	for u := 0; u < n; u++ {
		w := cnt[u]
		for _, v := range fwd[off[u]:off[u+1]] {
			arcs[w] = NodeID(v)
			w++
			arcs[cnt[v]] = NodeID(u)
			cnt[v]++
		}
		cnt[u] = w
	}
	copy(cnt[1:], cnt[:n])
	cnt[0] = 0
	g.arcs = arcs
	g.m = need / 2
}

// SetEdges resets r to the forward rows of an n-node graph with the given
// edges, listed in any order: each edge may come in either orientation and
// more than once. It orients every edge as (u, v) with u < v in place,
// sorts the list and drops repeats, so the rows are the same for any order
// of the same edges. It panics on a self-loop or a node outside [0, n).
func (r *ForwardRows) SetEdges(n int, edges [][2]NodeID) {
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			panic(fmt.Sprintf("graph: edge (%d, %d) out of range [0,%d)", u, v, n))
		}
		if u == v {
			panic("graph: self-loop")
		}
		if u > v {
			edges[i] = [2]NodeID{v, u}
		}
	}
	slices.SortFunc(edges, func(a, b [2]NodeID) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	r.Reset(n)
	r.Arcs = slices.Grow(r.Arcs, len(edges))
	u := 0
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		for ; u < int(e[0]); u++ {
			r.EndRow()
		}
		r.Arcs = append(r.Arcs, int32(e[1]))
	}
	for ; u < n; u++ {
		r.EndRow()
	}
}

// SetEdges builds g with n nodes from an edge list in any order (see
// ForwardRows.SetEdges, which reorders the list), through forward rows
// allocated for the call; a builder that keeps its rows across builds calls
// ForwardRows.SetEdges and SetForward itself.
func (g *Graph) SetEdges(n int, edges [][2]NodeID) {
	var r ForwardRows
	r.SetEdges(n, edges)
	g.SetForward(&r)
}

// HasEdge reports whether (u, v) is an edge, by binary search of u's row.
func (g *Graph) HasEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	_, ok := slices.BinarySearch(g.row(u), v)
	return ok
}

// row returns u's neighbor row.
func (g *Graph) row(u NodeID) []NodeID {
	return g.arcs[g.off[u]:g.off[u+1]]
}

// Neighbors returns u's adjacency list in increasing order, as a zero-copy
// subslice of the graph's flat arc array. The slice is owned by the graph;
// callers must not mutate it, and it is invalidated when the graph is
// built again.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	g.check(u)
	return g.arcs[g.off[u]:g.off[u+1]:g.off[u+1]]
}

// CSR exposes the flat adjacency: off has length N()+1 and node u's sorted
// neighbor row occupies arcs[off[u]:off[u+1]]. Consumers that keep per-arc
// side state (mac.Arena's delivery rows and reliability bits) index
// straight off this shared array instead of re-deriving per-node rows.
// Both slices are owned by the graph, must not be mutated, and are
// invalidated when the graph is built again.
func (g *Graph) CSR() (off []int32, arcs []NodeID) {
	return g.off, g.arcs
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u NodeID) int {
	g.check(u)
	return int(g.off[u+1] - g.off[u])
}

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := int(g.off[u+1] - g.off[u]); d > max {
			max = d
		}
	}
	return max
}

// Edges returns every edge once, as pairs (u, v) with u < v, in
// lexicographic order. Large-graph consumers that only need to walk the
// edges should range over EdgeSeq instead and skip this materialization.
func (g *Graph) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, g.M())
	for u, v := range g.EdgeSeq() {
		out = append(out, [2]NodeID{u, v})
	}
	return out
}

// EdgeSeq returns an iterator over every edge once, as pairs (u, v) with
// u < v, in the same lexicographic order Edges returns — streamed straight
// off the CSR rows, with no intermediate slice. Builders that feed a
// random stream from the edge order (RRestricted and friends) may switch
// between Edges and EdgeSeq freely: the visit order is identical.
func (g *Graph) EdgeSeq() iter.Seq2[NodeID, NodeID] {
	return func(yield func(NodeID, NodeID) bool) {
		for u := 0; u < g.n; u++ {
			for _, v := range g.row(NodeID(u)) {
				if NodeID(u) < v && !yield(NodeID(u), v) {
					return
				}
			}
		}
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return g.CloneInto(New(g.n))
}

// IsSubgraphOf reports whether every edge of g is also an edge of h (the
// paper's G ⊆ G′ requirement). It merge-walks the two sorted CSR rows per
// node — no edge-slice allocation, O(m + m′) total — because dual
// validation runs once per trial.
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	for u := 0; u < g.n; u++ {
		gr, hr := g.row(NodeID(u)), h.row(NodeID(u))
		hi := 0
		for _, v := range gr {
			for hi < len(hr) && hr[hi] < v {
				hi++
			}
			if hi >= len(hr) || hr[hi] != v {
				return false
			}
		}
	}
	return true
}

// IsIndependent reports whether no two nodes in set are adjacent in g
// (G-independence, Section 4 of the paper).
func (g *Graph) IsIndependent(set []NodeID) bool {
	in := make(map[NodeID]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, u := range g.row(v) {
			if in[u] {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependent reports whether set is a maximal independent set of
// g: independent, and every node is in set or adjacent to a member.
func (g *Graph) IsMaximalIndependent(set []NodeID) bool {
	if !g.IsIndependent(set) {
		return false
	}
	in := make(map[NodeID]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for u := 0; u < g.n; u++ {
		if in[NodeID(u)] {
			continue
		}
		covered := false
		for _, v := range g.row(NodeID(u)) {
			if in[v] {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}
