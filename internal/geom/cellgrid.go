package geom

import (
	"math"
	"slices"
)

// cellGridMinNodes is the embedding size at which the geometric builders
// switch from the O(n²) all-pairs scan to the cell-grid sweep below. It is
// a variable, not a constant, so the equivalence tests can force the grid
// path at small n and diff it against the scan; every experiment predating
// the large-n family sits under the threshold and keeps the scan bit for
// bit.
var cellGridMinNodes = 2048

// cellGrid buckets an embedding into square cells of side ≥ the interaction
// radius, so each node's neighbor candidates are confined to its 3×3 cell
// block: O(n·deg) candidate pairs on bounded-density embeddings instead of
// the all-pairs n²/2. The side also grows to extent/⌈√n⌉ when that is
// larger, so a sparse embedding over a wide square never has more than
// about n cells. Cells are stored CSR-style (one flat id array plus
// per-cell offsets), matching the graph core's layout, and build reuses
// its arrays.
type cellGrid struct {
	minX, minY float64
	inv        float64 // 1 / cell side
	cols, rows int
	start      []int32 // per-cell offsets into ids, len cols*rows+1
	ids        []int32 // node ids grouped by cell, ascending per cell
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
	if cap(cg.start) < cells+1 {
		cg.start = make([]int32, cells+1)
	} else {
		cg.start = cg.start[:cells+1]
		clear(cg.start)
	}
	if cap(cg.ids) < len(e) {
		cg.ids = make([]int32, len(e))
	} else {
		cg.ids = cg.ids[:len(e)]
	}
	// Counts shifted one cell, so the prefix sum leaves each cell's start
	// in start[c]; that then serves as the cell's write cursor, ending at
	// the start of cell c+1, and the shift below restores the starts.
	for _, pt := range e {
		cg.start[cg.cell(pt)+1]++
	}
	for i := 1; i <= cells; i++ {
		cg.start[i] += cg.start[i-1]
	}
	// Nodes are placed in id order, so each cell's slice stays ascending.
	for u, pt := range e {
		c := cg.cell(pt)
		cg.ids[cg.start[c]] = int32(u)
		cg.start[c]++
	}
	copy(cg.start[1:], cg.start[:cells])
	cg.start[0] = 0
}

// coords returns the column and row of pt's cell.
func (cg *cellGrid) coords(pt Point) (cx, cy int) {
	return int((pt.X - cg.minX) * cg.inv), int((pt.Y - cg.minY) * cg.inv)
}

func (cg *cellGrid) cell(pt Point) int {
	cx, cy := cg.coords(pt)
	return cy*cg.cols + cx
}

// tail returns the ids in cell (x, y) greater than u, ascending. Every node
// v > u within the radius of u is in the tail of one of the nine cells
// around u's own. The slice aliases the grid.
func (cg *cellGrid) tail(x, y int, u int32) []int32 {
	c := y*cg.cols + x
	ids := cg.ids[cg.start[c]:cg.start[c+1]]
	i, _ := slices.BinarySearch(ids, u+1)
	return ids[i:]
}
