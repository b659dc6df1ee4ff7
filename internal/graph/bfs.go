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
type bfsScratch struct {
	dist  []int
	queue []NodeID
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
// nodes in traversal order in queue's storage. The graph must be finalized
// (every public entry point below finalizes first).
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
	g.finalize()
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
	g.finalize()
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
	g.finalize()
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
// memoized until the next mutation (runners recompute the diameter of the
// same network for every execution); the memo is lock-guarded because
// finished graphs are shared read-only across parallel harness workers.
func (g *Graph) Diameter() int {
	g.finalize()
	g.diamMu.Lock()
	defer g.diamMu.Unlock()
	if g.diamOK {
		return g.diam
	}
	s := getScratch(g.n)
	resetDist(s.dist)
	max := 0
	for u := 0; u < g.n; u++ {
		s.queue = g.bfsInto(NodeID(u), s.dist, s.queue)
		for _, v := range s.queue {
			if d := s.dist[v]; d > max {
				max = d
			}
			s.dist[v] = Unreachable // restore for the next source
		}
	}
	putScratch(s)
	g.diam, g.diamOK = max, true
	return max
}

// Components returns the connected components as slices of node IDs, each
// sorted, ordered by smallest member.
func (g *Graph) Components() [][]NodeID {
	g.finalize()
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
	g.finalize()
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
	g.finalize()
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

// PowerInto builds Gʳ into dst, reusing dst's adjacency storage (see Reset),
// and returns dst. The r-balls are walked with a bounded BFS over two
// scratch slices shared by all n source walks of the call — two allocations
// per call instead of Ball's map per node; the resulting edge set is
// identical to Power's.
func (g *Graph) PowerInto(r int, dst *Graph) *Graph {
	if r < 1 {
		panic("graph: power exponent must be >= 1")
	}
	if dst == g {
		panic("graph: PowerInto onto its own receiver")
	}
	g.finalize()
	dst.Reset(g.n)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]NodeID, 0, g.n)
	for u := 0; u < g.n; u++ {
		dist[u] = 0
		queue = append(queue[:0], NodeID(u))
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
		for _, v := range queue {
			if v != NodeID(u) {
				dst.AddEdge(NodeID(u), v)
			}
			dist[v] = Unreachable
		}
	}
	return dst
}

func sortNodeIDs(s []NodeID) {
	slices.Sort(s)
}
