package topology

import (
	"math/rand"

	"amac/internal/geom"
	"amac/internal/graph"
)

// Workspace is reusable construction scratch for the registry's builders:
// a pool of resettable graphs, a point-embedding buffer, a reseedable
// random stream, the geometric builders' scan scratch, two sets of forward
// rows (graph.ForwardRows) for the line, pods and r-restricted builders,
// the edge list and pair set of the arbitrary-noise builder, and the
// reliability words of the dual (see Dual.ReliableArcs). BuildInto
// threads one through a builder so repeated builds — the per-trial
// topology draws of an unpinned scenario sweep — emit into recycled
// storage instead of fresh allocations.
//
// Networks built into a workspace alias its storage: the next BuildInto on
// the same workspace recycles the graphs, embedding and reliability words
// of the previous one.
// Callers therefore finish (or copy out of) one built network before
// building the next, exactly the discipline mac.Arena imposes on pooled
// engines. A nil *Workspace is valid everywhere and allocates fresh, so
// builders are written once against the workspace surface.
type Workspace struct {
	graphs   []*graph.Graph
	next     int
	points   geom.Embedding
	rng      *rand.Rand
	scratch  *geom.Scratch
	rows     [2]graph.ForwardRows
	extras   noiseScratch
	reliable []uint64
}

// noiseScratch is ArbitraryNoiseInto's storage: G′'s edge list and the set
// of extra pairs accepted so far.
type noiseScratch struct {
	edges    [][2]graph.NodeID
	accepted map[[2]graph.NodeID]bool
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

// forwardRows returns the workspace's two sets of forward rows, or fresh
// ones with a nil receiver. A builder fills and consumes them within one
// call (the next builder resets them).
func (ws *Workspace) forwardRows() (a, b *graph.ForwardRows) {
	if ws == nil {
		ws = new(Workspace)
	}
	return &ws.rows[0], &ws.rows[1]
}

// noise returns the workspace's arbitrary-noise scratch emptied, or a fresh
// one with a nil receiver.
func (ws *Workspace) noise() *noiseScratch {
	if ws == nil {
		ws = new(Workspace)
	}
	s := &ws.extras
	s.edges = s.edges[:0]
	if s.accepted == nil {
		s.accepted = make(map[[2]graph.NodeID]bool)
	}
	clear(s.accepted)
	return s
}

// reliableWords returns n zeroed words for a dual's reliability bits,
// grown only when capacity is short. With a nil receiver it allocates
// fresh.
func (ws *Workspace) reliableWords(n int) []uint64 {
	if ws == nil {
		return make([]uint64, n)
	}
	if cap(ws.reliable) < n {
		ws.reliable = make([]uint64, n)
	} else {
		ws.reliable = ws.reliable[:n]
		clear(ws.reliable)
	}
	return ws.reliable
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
