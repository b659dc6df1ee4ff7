package graph

import (
	"slices"
	"sync"
)

// Unreachable is the distance reported for nodes in a different connected
// component.
const Unreachable = -1

// bfsScratch is the frontier/visited storage behind the BFS-family queries.
// The buffers are pooled rather than hung off the Graph because finished
// graphs are shared read-only across parallel harness workers: per-graph
// scratch would make concurrent Diameter/IsConnected calls race, while a
// pooled scratch is exclusively owned between get and put. Connectivity
// probes run once per rejected draw inside the random-topology builders, so
// steady-state sweeps must not pay an allocation here.
//
// Diameter's bit-parallel BFS also keeps three words per node in words
// (seen, front and next) and a second frontier list in spare, grown on
// its first call at a size, so the other queries do not carry them.
type bfsScratch struct {
	dist  []int
	queue []NodeID
	words []uint64
	spare []NodeID
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// getScratch returns a scratch with capacity for n nodes. dist contents are
// stale; callers reset the entries they rely on (resetDist, or restoring
// visited entries after each walk).
//
//amac:hotpath
func getScratch(n int) *bfsScratch {
	s := bfsPool.Get().(*bfsScratch)
	if cap(s.dist) < n {
		s.dist = make([]int, n)        //lint:hotalloc lazy grow: runs once per pool entry per graph size, then every warm call reuses the block
		s.queue = make([]NodeID, 0, n) //lint:hotalloc lazy grow, same lifetime as dist above
	}
	s.dist = s.dist[:n]
	return s
}

func putScratch(s *bfsScratch) { bfsPool.Put(s) }

func resetDist(dist []int) {
	for i := range dist {
		dist[i] = Unreachable
	}
}

// bfsInto walks the component of src, writing hop distances into dist —
// whose entries must be Unreachable beforehand — and returns the visited
// nodes in traversal order in queue's storage.
//
//amac:hotpath
func (g *Graph) bfsInto(src NodeID, dist []int, queue []NodeID) []NodeID {
	dist[src] = 0
	queue = append(queue[:0], src)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range g.row(u) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// BFS returns the hop distance from src to every node; Unreachable for nodes
// in other components.
func (g *Graph) BFS(src NodeID) []int {
	g.check(src)
	dist := make([]int, g.n)
	resetDist(dist)
	s := getScratch(g.n)
	s.queue = g.bfsInto(src, dist, s.queue)
	putScratch(s)
	return dist
}

// Dist returns the hop distance dG(u, v), or Unreachable when disconnected.
func (g *Graph) Dist(u, v NodeID) int {
	g.check(u)
	g.check(v)
	s := getScratch(g.n)
	defer putScratch(s)
	resetDist(s.dist)
	s.queue = g.bfsInto(u, s.dist, s.queue)
	return s.dist[v]
}

// Eccentricity returns the maximum finite BFS distance from src (distance to
// the farthest node in src's component).
func (g *Graph) Eccentricity(src NodeID) int {
	g.check(src)
	s := getScratch(g.n)
	defer putScratch(s)
	resetDist(s.dist)
	s.queue = g.bfsInto(src, s.dist, s.queue)
	max := 0
	for _, v := range s.queue {
		if d := s.dist[v]; d > max {
			max = d
		}
	}
	return max
}

// Diameter returns the maximum eccentricity over all nodes, considering only
// intra-component distances. For an empty graph it returns 0. The result is
// memoized until the graph is built again (runners recompute the diameter
// of the same network for every execution); the memo is lock-guarded
// because finished graphs are shared read-only across parallel harness
// workers.
//
// It is the 64-source bit-parallel BFS of Then et al., "The More the
// Merrier" (VLDB 2015): ⌈n/64⌉ passes instead of n, with one word per node
// standing for a batch of sources. A node joins a pass's frontier at most
// once per source, the bound of a per-source BFS, and once for many sources
// wherever their waves travel together.
func (g *Graph) Diameter() int {
	g.diamMu.Lock()
	defer g.diamMu.Unlock()
	if g.diamOK {
		return g.diam
	}
	s := getScratch(g.n)
	d := g.bitParallelDiameter(s)
	putScratch(s)
	g.diam, g.diamOK = d, true
	return d
}

// bitParallelDiameter runs the sources in batches of 64 consecutive ids, bit
// i of a node's words standing for source b+i: seen holds the sources that
// have reached the node, front those that reached it at the current level.
// A level pushes each frontier node's front word to its neighbours, masked
// by their seen words, and lists the nodes that gained bits as the next
// frontier, whose gains sit in next. A source reaches a node exactly at
// their distance, so the deepest level any batch reaches is the largest
// eccentricity.
func (g *Graph) bitParallelDiameter(s *bfsScratch) int {
	n := g.n
	if cap(s.words) < 3*n {
		s.words = make([]uint64, 3*n)
	}
	if cap(s.spare) < n {
		s.spare = make([]NodeID, 0, n)
	}
	seen, front, next := s.words[:n], s.words[n:2*n], s.words[2*n:3*n]
	// front and next start zero and are zero again after every batch: a
	// level clears the front words it reads, and a batch's last level lists
	// no gains.
	clear(front)
	clear(next)
	off, arcs := g.off, g.arcs
	cur, nxt := s.queue[:0], s.spare[:0]
	diam := 0
	for b := 0; b < n; b += 64 {
		clear(seen)
		for i := 0; i < 64 && b+i < n; i++ {
			seen[b+i] = 1 << i
			front[b+i] = 1 << i
			cur = append(cur, NodeID(b+i))
		}
		for level := 0; len(cur) > 0; level++ {
			diam = max(diam, level)
			for _, u := range cur {
				f := front[u]
				front[u] = 0
				for _, v := range arcs[off[u]:off[u+1]] {
					if add := f &^ seen[v]; add != 0 {
						if next[v] == 0 {
							nxt = append(nxt, v)
						}
						next[v] |= add
						seen[v] |= add
					}
				}
			}
			cur, nxt = nxt, cur[:0]
			front, next = next, front
		}
	}
	s.queue, s.spare = cur, nxt
	return diam
}

// Components returns the connected components as slices of node IDs, each
// sorted, ordered by smallest member.
func (g *Graph) Components() [][]NodeID {
	s := getScratch(g.n)
	resetDist(s.dist)
	var comps [][]NodeID
	for u := 0; u < g.n; u++ {
		if s.dist[u] != Unreachable {
			continue
		}
		s.queue = g.bfsInto(NodeID(u), s.dist, s.queue)
		comp := append([]NodeID(nil), s.queue...)
		sortNodeIDs(comp)
		comps = append(comps, comp)
	}
	putScratch(s)
	return comps
}

// IsConnected reports whether g has exactly one connected component (true
// for the empty and single-node graphs). A single BFS from node 0 — no
// component materialization, because the random-topology builders probe
// connectivity on every rejected draw.
//
//amac:hotpath
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	s := getScratch(g.n)
	defer putScratch(s)
	resetDist(s.dist)
	s.queue = g.bfsInto(0, s.dist, s.queue)
	return len(s.queue) == g.n
}

// Ball returns all nodes within r hops of center (including center), sorted.
// It matches the paper's N_G^r(j) notation.
func (g *Graph) Ball(center NodeID, r int) []NodeID {
	g.check(center)
	dist := map[NodeID]int{center: 0}
	queue := []NodeID{center}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == r {
			continue
		}
		for _, v := range g.row(u) {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	out := make([]NodeID, 0, len(dist))
	for v := range dist {
		out = append(out, v)
	}
	sortNodeIDs(out)
	return out
}

// Power returns Gʳ: the graph on the same nodes with an edge between every
// pair at hop distance in [1, r] in g (Section 3.2 of the paper; no
// self-loops).
func (g *Graph) Power(r int) *Graph { return g.PowerInto(r, New(g.n)) }

// PowerInto builds Gʳ into dst, reusing dst's adjacency storage (see
// Reset), and returns dst, which must not be g. Its forward rows come from
// PowerRows, into rows allocated for the call.
func (g *Graph) PowerInto(r int, dst *Graph) *Graph {
	if dst == g {
		panic("graph: PowerInto onto its own receiver")
	}
	var rows ForwardRows
	g.PowerRows(r, &rows)
	dst.SetForward(&rows)
	return dst
}

// PowerRows writes Gʳ's forward rows into rows (reset first, keeping its
// storage): row u lists every v > u within r hops of u, ascending. One
// bounded BFS per u walks u's r-ball over pooled scratch, and the nodes it
// reaches above u, sorted, become u's row, so a caller that keeps rows
// across builds allocates nothing once warm.
func (g *Graph) PowerRows(r int, rows *ForwardRows) {
	if r < 1 {
		panic("graph: power exponent must be >= 1")
	}
	rows.Reset(g.n)
	s := getScratch(g.n)
	defer putScratch(s)
	dist := s.dist
	resetDist(dist)
	for u := 0; u < g.n; u++ {
		dist[u] = 0
		queue := append(s.queue[:0], NodeID(u))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] == r {
				continue
			}
			for _, w := range g.row(v) {
				if dist[w] == Unreachable {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		start := len(rows.Arcs)
		for _, v := range queue {
			if v > NodeID(u) {
				rows.Arcs = append(rows.Arcs, int32(v))
			}
			dist[v] = Unreachable
		}
		slices.Sort(rows.Arcs[start:])
		rows.EndRow()
		s.queue = queue
	}
}

func sortNodeIDs(s []NodeID) {
	slices.Sort(s)
}
