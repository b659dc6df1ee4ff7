package topology

import (
	"math/rand"

	"amac/internal/geom"
	"amac/internal/graph"
)

// Workspace is reusable construction scratch for the registry's builders:
// a pool of resettable graphs, a point-embedding buffer, a reseedable
// random stream and the geometric builders' scan scratch. BuildInto
// threads one through a builder so repeated builds — the per-trial
// topology draws of an unpinned scenario sweep — emit into recycled
// storage instead of fresh allocations.
//
// Networks built into a workspace alias its storage: the next BuildInto on
// the same workspace recycles the graphs and embedding of the previous one.
// Callers therefore finish (or copy out of) one built network before
// building the next, exactly the discipline mac.Arena imposes on pooled
// engines. A nil *Workspace is valid everywhere and allocates fresh, so
// builders are written once against the workspace surface.
type Workspace struct {
	graphs  []*graph.Graph
	next    int
	points  geom.Embedding
	rng     *rand.Rand
	scratch *geom.Scratch
}

// NewWorkspace returns an empty workspace; storage is grown on first use and
// recycled thereafter.
func NewWorkspace() *Workspace { return &Workspace{} }

// begin rewinds the graph pool for the next build.
func (ws *Workspace) begin() {
	if ws != nil {
		ws.next = 0
	}
}

// Graph hands out a reset n-node graph from the pool (see graph.Reset),
// growing the pool on first use. With a nil receiver it allocates fresh.
func (ws *Workspace) Graph(n int) *graph.Graph {
	if ws == nil {
		return graph.New(n)
	}
	if ws.next < len(ws.graphs) {
		g := ws.graphs[ws.next]
		ws.next++
		g.Reset(n)
		return g
	}
	g := graph.New(n)
	ws.graphs = append(ws.graphs, g)
	ws.next++
	return g
}

// Mark returns the current graph-pool cursor; Rewind(mark) hands the graphs
// taken since back to the pool. Builders that retry a rejected draw (e.g.
// the connected-RGG loop) rewind between attempts so retries reuse one set
// of graphs instead of growing the pool per attempt.
func (ws *Workspace) Mark() int {
	if ws == nil {
		return 0
	}
	return ws.next
}

// Rewind restores the graph-pool cursor to a previous Mark.
func (ws *Workspace) Rewind(mark int) {
	if ws != nil {
		ws.next = mark
	}
}

// Points hands out the n-point embedding buffer, grown only when capacity is
// short. With a nil receiver it allocates fresh.
func (ws *Workspace) Points(n int) geom.Embedding {
	if ws == nil {
		return make(geom.Embedding, n)
	}
	if cap(ws.points) < n {
		ws.points = make(geom.Embedding, n)
	} else {
		ws.points = ws.points[:n]
	}
	return ws.points
}

// Scratch returns the workspace's geometric-build scratch (the cell grid
// and forward rows geom.Embedding.GreyZoneDualInto and UnitDiskInto fill),
// so recycled builds reuse it. With a nil receiver it returns nil, which
// the builders read as "allocate for this call".
func (ws *Workspace) Scratch() *geom.Scratch {
	if ws == nil {
		return nil
	}
	if ws.scratch == nil {
		ws.scratch = new(geom.Scratch)
	}
	return ws.scratch
}

// Rand returns the workspace's random stream reseeded to seed — the exact
// stream rand.New(rand.NewSource(seed)) yields, with the *rand.Rand itself
// recycled across builds. With a nil receiver it allocates fresh.
func (ws *Workspace) Rand(seed int64) *rand.Rand {
	if ws == nil {
		return rand.New(rand.NewSource(seed))
	}
	if ws.rng == nil {
		ws.rng = rand.New(rand.NewSource(seed))
	} else {
		ws.rng.Seed(seed)
	}
	return ws.rng
}
