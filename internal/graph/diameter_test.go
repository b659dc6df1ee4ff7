package graph

import (
	"math"
	"slices"
	"testing"
)

// refDiameter is the per-source loop Diameter ran before the bit-parallel
// BFS, kept as the reference it must reproduce: one BFS from every node
// over the pooled scratch, restoring each visited distance for the next.
func refDiameter(g *Graph) int {
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
	return max
}

// maxDiameterFuzzNodes caps FuzzDiameterMatchesReference's node count at
// the largest n byte 0 can name: four 64-source batches, the last one
// partial, so inputs cross all three word boundaries below it.
const maxDiameterFuzzNodes = 255

// FuzzDiameterMatchesReference builds a graph from a generated edge list,
// once into fresh storage and once into a graph recycled across inputs,
// and holds Diameter of both to refDiameter. The seed corpus sits at
// n = 63, 64, 65, 128, 129 and 255: paths longer than 64 levels, one whose
// only diametral pair is the top bit of each batch (63 and 127), a cycle,
// a star, isolated nodes, and components that straddle a word boundary.
func FuzzDiameterMatchesReference(f *testing.F) {
	recycled := New(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeEdges(data, maxDiameterFuzzNodes)
		fresh := new(Graph)
		fresh.SetEdges(n, slices.Clone(edges))
		want := refDiameter(fresh)
		if got := fresh.Diameter(); got != want {
			t.Fatalf("n=%d, %d edges: Diameter = %d, per-source BFS %d", n, fresh.M(), got, want)
		}
		recycled.SetEdges(n, slices.Clone(edges))
		if got := recycled.Diameter(); got != want {
			t.Fatalf("n=%d, %d edges, recycled: Diameter = %d, per-source BFS %d", n, recycled.M(), got, want)
		}
	})
}

// forwardRows returns g's forward rows, from which SetForward rebuilds g.
func forwardRows(g *Graph) *ForwardRows {
	var r ForwardRows
	r.Reset(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.row(NodeID(u)) {
			if v > NodeID(u) {
				r.Arcs = append(r.Arcs, int32(v))
			}
		}
		r.EndRow()
	}
	return &r
}

// gridGraph is the rows×cols mesh, node r·cols+c adjacent to its four
// axis neighbours.
func gridGraph(rows, cols int) *Graph {
	var edges [][2]NodeID
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := NodeID(r*cols + c)
			if c+1 < cols {
				edges = append(edges, [2]NodeID{u, u + 1})
			}
			if r+1 < rows {
				edges = append(edges, [2]NodeID{u, u + NodeID(cols)})
			}
		}
	}
	return fromEdges(rows*cols, edges...)
}

// rggSide is the square side at which an n-node unit-disk graph has
// expected degree 4·ln n, the density of the repository's rgg workloads.
func rggSide(n int) float64 {
	return math.Sqrt(math.Pi * float64(n) / (4 * math.Log(float64(n))))
}

// BenchmarkDiameter times one exact diameter per iteration on the shapes
// Diameter meets: rggs at sweep-checked's size and at the workloads'
// density up to ExactDiameterCutoff, grids, and lines, where no two of a
// batch's 64 waves ever merge. Each iteration rebuilds the graph from its
// forward rows outside the timer, so the memo never answers.
func BenchmarkDiameter(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *Graph
	}{
		{"rgg/n=200/side=6", randomGeometric(200, 6, 1)},
		{"rgg/n=1000", randomGeometric(1000, rggSide(1000), 1)},
		{"rgg/n=2048", randomGeometric(2048, rggSide(2048), 1)},
		{"grid/20x20", gridGraph(20, 20)},
		{"grid/45x45", gridGraph(45, 45)},
		{"line/n=256", line(256)},
		{"line/n=2048", line(2048)},
	} {
		rows := forwardRows(bc.g)
		want := refDiameter(bc.g)
		b.Run(bc.name, func(b *testing.B) {
			g := new(Graph)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g.SetForward(rows)
				b.StartTimer()
				if d := g.Diameter(); d != want {
					b.Fatalf("Diameter = %d, want %d", d, want)
				}
			}
			b.ReportMetric(float64(want), "D")
		})
	}
}
