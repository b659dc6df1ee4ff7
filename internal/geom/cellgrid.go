package geom

import (
	"math"

	"amac/internal/graph"
)

// cellGridMinNodes is the embedding size at which UnitDiskInto and
// GreyZoneInto switch from the O(n²) all-pairs scan to the cell-grid sweep
// below. It is a variable, not a constant, so the equivalence tests can
// force the grid path at small n and diff it against the scan; every
// experiment predating the large-n family sits under the threshold and
// keeps the scan bit for bit.
var cellGridMinNodes = 2048

// cellGrid buckets an embedding into square cells of side ≥ the interaction
// radius, so each node's neighbor candidates are confined to its 3×3 cell
// block: O(n·deg) candidate pairs on bounded-density embeddings instead of
// the all-pairs n²/2. The side also grows to extent/⌈√n⌉ when that is
// larger, so a sparse embedding over a wide square never has more than
// about n cells. Cells are stored CSR-style (one flat id array plus
// per-cell offsets), matching the graph core's layout.
type cellGrid struct {
	minX, minY float64
	inv        float64 // 1 / cell side
	cols, rows int
	start      []int32        // per-cell offsets into ids, len cols*rows+1
	ids        []graph.NodeID // node ids grouped by cell, ascending per cell
	cand       []graph.NodeID // candidate scratch reused across nodes
}

// build indexes the embedding for the given interaction radius: every pair
// within that distance shares a cell or touches an adjacent one, since the
// cell side is max(radius, extent/⌈√n⌉).
func (cg *cellGrid) build(e Embedding, radius float64) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, pt := range e {
		minX, minY = math.Min(minX, pt.X), math.Min(minY, pt.Y)
		maxX, maxY = math.Max(maxX, pt.X), math.Max(maxY, pt.Y)
	}
	cg.minX, cg.minY = minX, minY
	extent := math.Max(maxX-minX, maxY-minY)
	cg.inv = 1 / math.Max(radius, extent/math.Ceil(math.Sqrt(float64(len(e)))))
	cg.cols = int((maxX-minX)*cg.inv) + 1
	cg.rows = int((maxY-minY)*cg.inv) + 1
	cells := cg.cols * cg.rows
	cg.start = make([]int32, cells+1)
	for _, pt := range e {
		cg.start[cg.cell(pt)+1]++
	}
	for i := 1; i <= cells; i++ {
		cg.start[i] += cg.start[i-1]
	}
	cg.ids = make([]graph.NodeID, len(e))
	cursor := make([]int32, cells)
	// Nodes are placed in id order, so each cell's slice stays ascending.
	for u, pt := range e {
		c := cg.cell(pt)
		cg.ids[cg.start[c]+cursor[c]] = graph.NodeID(u)
		cursor[c]++
	}
}

func (cg *cellGrid) cell(pt Point) int {
	cx := int((pt.X - cg.minX) * cg.inv)
	cy := int((pt.Y - cg.minY) * cg.inv)
	return cy*cg.cols + cx
}

// candidates returns every node v > u in u's 3×3 cell block — a superset of
// the nodes within the interaction radius of u — cell by cell, ascending
// within each cell but not overall: callers that need the all-pairs scan's
// increasing-v order sort what they keep. The slice is scratch owned by the
// grid, overwritten by the next call.
func (cg *cellGrid) candidates(e Embedding, u graph.NodeID) []graph.NodeID {
	cx := int((e[u].X - cg.minX) * cg.inv)
	cy := int((e[u].Y - cg.minY) * cg.inv)
	out := cg.cand[:0]
	for dy := -1; dy <= 1; dy++ {
		y := cy + dy
		if y < 0 || y >= cg.rows {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= cg.cols {
				continue
			}
			c := y*cg.cols + x
			bucket := cg.ids[cg.start[c]:cg.start[c+1]]
			// Buckets are ascending: skip to the first id past u.
			lo, hi := 0, len(bucket)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if bucket[mid] <= u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			out = append(out, bucket[lo:]...)
		}
	}
	cg.cand = out
	return out
}
