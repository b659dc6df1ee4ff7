package graph

// GreedyMIS returns the maximal independent set produced by the sequential
// greedy algorithm scanning nodes in ID order. It is the centralized
// baseline the distributed MIS subroutine (paper Section 4.2) is compared
// against: both produce maximal independent sets; the distributed one does
// it in O(polylog n) Fprog-rounds over the abstract MAC layer.
func (g *Graph) GreedyMIS() []NodeID {
	blocked := make([]bool, g.n)
	var mis []NodeID
	for u := 0; u < g.n; u++ {
		if blocked[u] {
			continue
		}
		mis = append(mis, NodeID(u))
		blocked[u] = true
		for _, v := range g.row(NodeID(u)) {
			blocked[v] = true
		}
	}
	return mis
}

// Overlay returns the overlay graph H = (set, E_set) of Section 4.4: the
// graph over the given node subset with an edge between two members
// whenever their hop distance in g is at most maxDist (the paper uses
// maxDist = 3 over an MIS). Node i of the result is the i-th smallest
// member of set; that mapping, the set sorted, is returned alongside.
func (g *Graph) Overlay(set []NodeID, maxDist int) (*Graph, []NodeID) {
	idx := make(map[NodeID]int, len(set))
	members := append([]NodeID(nil), set...)
	sortNodeIDs(members)
	for i, v := range members {
		idx[v] = i
	}
	var edges [][2]NodeID
	for i, v := range members {
		dist := g.boundedBFS(v, maxDist)
		//lint:mapiter the visit order is invisible: SetEdges sorts the edge list and drops repeats, so the graph is the same for any order
		for u, d := range dist {
			j, ok := idx[u]
			if !ok || j == i || d > maxDist {
				continue
			}
			edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
		}
	}
	h := new(Graph)
	h.SetEdges(len(members), edges)
	return h, members
}

// boundedBFS returns hop distances from src up to the given radius.
func (g *Graph) boundedBFS(src NodeID, radius int) map[NodeID]int {
	dist := map[NodeID]int{src: 0}
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == radius {
			continue
		}
		for _, v := range g.row(u) {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
