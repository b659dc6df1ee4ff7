// Package graph provides the undirected-graph machinery the paper's model is
// built on: adjacency graphs over dense integer node IDs, BFS distances,
// diameter, connected components, graph powers Gʳ (Section 3.2 of the
// paper), and independence checks used by the MIS subroutine analysis.
package graph

import (
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
// Mutation is build-phase-only and not goroutine-safe (like the previous
// slice-of-slices representation): AddEdge appends to a pending arc buffer
// and the first read — Neighbors, BFS, M, Edges, ... — compacts it into the
// CSR block (bucket by source + per-row sort + dedup, so duplicate AddEdge
// calls stay idempotent). HasEdge alone answers without compacting, through
// a lazily built membership overlay, because the randomized builders
// interleave HasEdge probes with AddEdge and must stay O(1) amortized per
// call. SetForward instead fills the block in one pass from sorted forward
// rows — the geometric builders' path, with no pending buffer at all.
// Graphs shared read-only across goroutines must be finalized first (see
// Finalize; topology.BuildInto does this for every registry build).
type Graph struct {
	n int
	m int // edge count, recomputed when pending arcs compact

	off  []int32  // row offsets, len n+1 (nil only for the zero value)
	arcs []NodeID // flat arc array, rows sorted, concatenated in node order

	// offBuf/arcsBuf are the spare buffers finalize buckets into; the old
	// storage is retained for the next compaction, so alternating build/read
	// phases on a recycled graph allocate nothing in steady state.
	offBuf  []int32
	arcsBuf []NodeID

	// pend holds arcs added since the last finalize, packed u<<32|v (both
	// directions per AddEdge), unsorted and possibly duplicated.
	pend []uint64
	// seen is the pending-arc membership overlay HasEdge consults while
	// dirty; built lazily on the first such probe and kept in sync by
	// AddEdge from then on (seenOK). Invalidated by finalize and Reset.
	seen   map[uint64]struct{}
	seenOK bool

	// diam memoizes Diameter() under diamMu: finished graphs are shared
	// read-only across harness workers, so the lazy fill must be
	// synchronized. diamOK is cleared by AddEdge (mutation is
	// build-phase-only and not goroutine-safe, like the rest of Graph).
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
// storage of its arc block and pending buffer, so rebuilding a same-shaped
// graph performs no allocation. It is the structure-sharing construction
// mode behind topology.Workspace: a Reset graph is observably identical to
// New(n), only the memory is recycled.
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
	g.pend = g.pend[:0]
	g.seenOK = false
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
	g.finalize()
	dst.Reset(g.n)
	dst.off = append(dst.off[:0], g.off...)
	dst.arcs = append(dst.arcs[:0], g.arcs...)
	dst.m = g.m
	return dst
}

// M returns the number of edges.
func (g *Graph) M() int {
	g.finalize()
	return g.m
}

func (g *Graph) check(v NodeID) {
	if v < 0 || int(v) >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.n))
	}
}

func pack(u, v NodeID) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// AddEdge inserts the undirected edge (u, v). Self-loops are rejected;
// duplicate insertions are idempotent.
func (g *Graph) AddEdge(u, v NodeID) {
	g.check(u)
	g.check(v)
	if u == v {
		panic("graph: self-loop")
	}
	if g.hasArc(u, v) {
		return
	}
	g.pend = append(g.pend, pack(u, v), pack(v, u))
	if g.seenOK {
		g.seen[pack(u, v)] = struct{}{}
		g.seen[pack(v, u)] = struct{}{}
	}
	g.diamOK = false
	g.adiamOK = false
}

// SetForward resets g to n nodes and fills its CSR block straight from
// forward rows: fwd[off[u]:off[u+1]] lists node u's neighbors v > u in
// strictly ascending order, and off has length n+1. One counting
// transposition places every arc: row u receives its back arcs (each w < u
// whose forward row lists u) in ascending w, ahead of its own forward row,
// so every row comes out sorted with no per-row sort and no pending buffer.
// The geometric builders emit their edge sets this way; AddEdge stays the
// path for builders that add edges in arbitrary order. It panics on a row
// that is out of order or out of range, and keeps g's storage like Reset.
func (g *Graph) SetForward(n int, off []int32, fwd []int32) {
	if len(off) != n+1 {
		panic(fmt.Sprintf("graph: %d forward offsets for %d nodes", len(off), n))
	}
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

// hasArc reports whether (u, v) is in the compacted CSR block (pending arcs
// not considered) by binary-searching u's sorted row.
func (g *Graph) hasArc(u, v NodeID) bool {
	row := g.arcs[g.off[u]:g.off[u+1]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == v
}

// HasEdge reports whether (u, v) is an edge. It answers without compacting
// pending arcs: the randomized builders interleave HasEdge with AddEdge,
// and a full compaction per probe would be quadratic.
func (g *Graph) HasEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	if g.hasArc(u, v) {
		return true
	}
	if len(g.pend) == 0 {
		return false
	}
	if !g.seenOK {
		g.buildSeen()
	}
	_, ok := g.seen[pack(u, v)]
	return ok
}

// buildSeen fills the pending-arc membership overlay from pend, reusing the
// map's buckets across builds.
func (g *Graph) buildSeen() {
	if g.seen == nil {
		g.seen = make(map[uint64]struct{}, len(g.pend))
	} else {
		clear(g.seen)
	}
	for _, k := range g.pend {
		g.seen[k] = struct{}{}
	}
	g.seenOK = true
}

// Finalize compacts any pending arcs into the flat CSR block. Every read
// API does this implicitly; builders that hand a graph to concurrent
// readers call it explicitly so no reader races the compaction. It is
// idempotent and cheap when nothing is pending.
func (g *Graph) Finalize() { g.finalize() }

// finalize buckets the pending arcs by source with one counting pass
// (Gustavson's CSR transposition), so the cost is linear in the arc count
// plus a sort of each row, never a sort of the whole pending buffer. The
// geometric builders skip it: they hand SetForward rows that are already
// sorted.
func (g *Graph) finalize() {
	if len(g.pend) == 0 {
		return
	}
	need := len(g.arcs) + len(g.pend)
	if need > math.MaxInt32 {
		panic("graph: arc count exceeds int32 offsets")
	}
	dst := g.arcsBuf
	if cap(dst) < need {
		dst = make([]NodeID, need)
	} else {
		dst = dst[:need]
	}
	newOff := g.offBuf
	if cap(newOff) < g.n+1 {
		newOff = make([]int32, g.n+1)
	} else {
		newOff = newOff[:g.n+1]
		clear(newOff)
	}
	// Row sizes: pending arcs per source plus the compacted row, shifted
	// one slot so the exclusive prefix sum leaves each bucket's start in
	// newOff[u].
	for _, a := range g.pend {
		newOff[a>>32+1]++
	}
	for u := 0; u < g.n; u++ {
		newOff[u+1] += newOff[u] + g.off[u+1] - g.off[u]
	}
	// Fill each bucket: the compacted row first, then the pending targets
	// behind it. newOff[u] serves as u's write cursor and ends at the start
	// of bucket u+1; the shift below restores the starts.
	for u := 0; u < g.n; u++ {
		newOff[u] += int32(copy(dst[newOff[u]:], g.arcs[g.off[u]:g.off[u+1]]))
	}
	for _, a := range g.pend {
		u := a >> 32
		dst[newOff[u]] = NodeID(uint32(a))
		newOff[u]++
	}
	copy(newOff[1:], newOff[:g.n])
	newOff[0] = 0
	// Sort each bucket and drop duplicates while compacting left. Bucket u
	// is [lo, newOff[u+1]), read before newOff[u+1] is overwritten, and the
	// write index w never passes the read index.
	w, lo := int32(0), int32(0)
	for u := 0; u < g.n; u++ {
		hi := newOff[u+1]
		row := dst[lo:hi]
		slices.Sort(row)
		newOff[u] = w
		for _, v := range row {
			if w == newOff[u] || dst[w-1] != v {
				dst[w] = v
				w++
			}
		}
		lo = hi
	}
	newOff[g.n] = w
	dst = dst[:w]
	// Swap: the displaced storage becomes the spare for the next merge.
	g.arcsBuf, g.arcs = g.arcs, dst
	g.offBuf, g.off = g.off, newOff
	g.pend = g.pend[:0]
	g.seenOK = false
	g.m = len(g.arcs) / 2
}

// row returns u's neighbor row. The graph must be finalized.
func (g *Graph) row(u NodeID) []NodeID {
	return g.arcs[g.off[u]:g.off[u+1]]
}

// Neighbors returns u's adjacency list in increasing order, as a zero-copy
// subslice of the graph's flat arc array. The slice is owned by the graph;
// callers must not mutate it, and it is invalidated by the next mutation.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	g.check(u)
	g.finalize()
	return g.arcs[g.off[u]:g.off[u+1]:g.off[u+1]]
}

// CSR exposes the finalized flat adjacency: off has length N()+1 and node
// u's sorted neighbor row occupies arcs[off[u]:off[u+1]]. Consumers that
// keep per-arc side state (mac.Arena's delivery rows and reliability bits)
// index straight off this shared array instead of re-deriving per-node
// rows. Both slices are owned by the graph, must not be mutated, and are
// invalidated by the next mutation.
func (g *Graph) CSR() (off []int32, arcs []NodeID) {
	g.finalize()
	return g.off, g.arcs
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u NodeID) int {
	g.check(u)
	g.finalize()
	return int(g.off[u+1] - g.off[u])
}

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	g.finalize()
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
		g.finalize()
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

// Union returns a new graph with n nodes containing the edges of both g and
// h. Both graphs must have the same node count.
func Union(g, h *Graph) *Graph {
	if g.n != h.n {
		panic("graph: union of graphs with different node counts")
	}
	u := g.Clone()
	for a, b := range h.EdgeSeq() {
		u.AddEdge(a, b)
	}
	return u
}

// IsSubgraphOf reports whether every edge of g is also an edge of h (the
// paper's G ⊆ G′ requirement). It merge-walks the two sorted CSR rows per
// node — no edge-slice allocation, O(m + m′) total — because dual
// validation runs once per trial.
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	g.finalize()
	h.finalize()
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
	g.finalize()
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
