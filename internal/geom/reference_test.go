package geom

import (
	"math"
	"math/rand"
	"slices"

	"amac/internal/graph"
)

// This file keeps the grey-zone build as it was before G and G′ came out of
// one forward-row scan: a unit-disk scan into G, then a second scan at
// radius c into G′, with the cell grid of that time. Each scan lists its
// pairs in the order it finds them and graph.SetEdges assembles the list;
// the pairs and the draws are unchanged apart from the names (the G′
// buffer's capacity reservation is left out: it never changed a byte).
// TestGreyZoneDualMatchesReference and FuzzGreyZoneDualMatchesReference
// hold the builder to them: equal CSR bytes and an equally advanced random
// stream.

func refUnitDiskInto(e Embedding, g *graph.Graph, radius float64) *graph.Graph {
	var edges [][2]graph.NodeID
	if len(e) >= cellGridMinNodes && radius > 0 {
		var cg refCellGrid
		cg.build(e, radius)
		for u := 0; u < len(e); u++ {
			for _, v := range cg.candidates(e, graph.NodeID(u)) {
				if e[u].Dist(e[v]) <= radius {
					edges = append(edges, [2]graph.NodeID{graph.NodeID(u), v})
				}
			}
		}
		g.SetEdges(len(e), edges)
		return g
	}
	for u := 0; u < len(e); u++ {
		for v := u + 1; v < len(e); v++ {
			if e[u].Dist(e[v]) <= radius {
				edges = append(edges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
			}
		}
	}
	g.SetEdges(len(e), edges)
	return g
}

func refGreyZoneInto(e Embedding, g *graph.Graph, c, p float64, rng *rand.Rand) *graph.Graph {
	if c < 1 {
		panic("geom: grey zone constant c must be >= 1")
	}
	var edges [][2]graph.NodeID
	if len(e) >= cellGridMinNodes {
		var cg refCellGrid
		cg.build(e, c)
		var grey []graph.NodeID
		for u := 0; u < len(e); u++ {
			grey = grey[:0]
			for _, v := range cg.candidates(e, graph.NodeID(u)) {
				d := e[u].Dist(e[v])
				switch {
				case d <= 1, d <= c && p >= 1:
					edges = append(edges, [2]graph.NodeID{graph.NodeID(u), v})
				case d <= c:
					grey = append(grey, v)
				}
			}
			slices.Sort(grey)
			for _, v := range grey {
				if rng.Float64() < p {
					edges = append(edges, [2]graph.NodeID{graph.NodeID(u), v})
				}
			}
		}
		g.SetEdges(len(e), edges)
		return g
	}
	for u := 0; u < len(e); u++ {
		for v := u + 1; v < len(e); v++ {
			d := e[u].Dist(e[v])
			switch {
			case d <= 1:
				edges = append(edges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
			case d <= c && (p >= 1 || rng.Float64() < p):
				edges = append(edges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
			}
		}
	}
	g.SetEdges(len(e), edges)
	return g
}

// refDual is the reference build of the rgg family: G by the unit-disk
// scan, then G′ by the grey-zone scan from the same stream.
func refDual(e Embedding, c, p float64, rng *rand.Rand) (g, gp *graph.Graph) {
	g = refUnitDiskInto(e, graph.New(len(e)), 1)
	gp = refGreyZoneInto(e, graph.New(len(e)), c, p, rng)
	return g, gp
}

type refCellGrid struct {
	minX, minY float64
	inv        float64
	cols, rows int
	start      []int32
	ids        []graph.NodeID
	cand       []graph.NodeID
}

func (cg *refCellGrid) build(e Embedding, radius float64) {
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
	for u, pt := range e {
		c := cg.cell(pt)
		cg.ids[cg.start[c]+cursor[c]] = graph.NodeID(u)
		cursor[c]++
	}
}

func (cg *refCellGrid) cell(pt Point) int {
	cx := int((pt.X - cg.minX) * cg.inv)
	cy := int((pt.Y - cg.minY) * cg.inv)
	return cy*cg.cols + cx
}

func (cg *refCellGrid) candidates(e Embedding, u graph.NodeID) []graph.NodeID {
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
