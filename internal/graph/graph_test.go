package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// fromEdges returns an n-node graph built by SetEdges from the given edges.
func fromEdges(n int, edges ...[2]NodeID) *Graph {
	g := new(Graph)
	g.SetEdges(n, edges)
	return g
}

// lineEdges returns the edges of the n-node path 0-1-...-(n-1).
func lineEdges(n int) [][2]NodeID {
	var edges [][2]NodeID
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]NodeID{NodeID(i), NodeID(i + 1)})
	}
	return edges
}

func line(n int) *Graph { return fromEdges(n, lineEdges(n)...) }

// randomEdges draws k node pairs uniformly from [0, n), dropping
// self-pairs, and appends them to edges.
func randomEdges(rng *rand.Rand, edges [][2]NodeID, n, k int) [][2]NodeID {
	for i := 0; i < k; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
		}
	}
	return edges
}

// TestSetEdgesDedups pins that an edge given more than once, in either
// orientation, is one edge.
func TestSetEdgesDedups(t *testing.T) {
	g := fromEdges(3, [2]NodeID{0, 1}, [2]NodeID{1, 0}, [2]NodeID{0, 1})
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge (0,2)")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	fromEdges(2, [2]NodeID{1, 1})
}

func TestOutOfRangePanics(t *testing.T) {
	for _, e := range [][2]NodeID{{0, 2}, {2, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("out-of-range edge %v did not panic", e)
				}
			}()
			fromEdges(2, e)
		}()
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := fromEdges(5, [2]NodeID{2, 4}, [2]NodeID{2, 0}, [2]NodeID{3, 2}, [2]NodeID{2, 1})
	nbrs := g.Neighbors(2)
	want := []NodeID{0, 1, 3, 4}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors = %v", nbrs)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", nbrs, want)
		}
	}
	if g.Degree(2) != 4 || g.MaxDegree() != 4 {
		t.Fatalf("Degree=%d MaxDegree=%d", g.Degree(2), g.MaxDegree())
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := fromEdges(4, [2]NodeID{0, 1}, [2]NodeID{2, 1}, [2]NodeID{3, 0})
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("Edges = %v", edges)
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not normalized", e)
		}
	}
}

func TestBFSLine(t *testing.T) {
	g := line(5)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("dist[%d] = %d, want %d", i, d, i)
		}
	}
	if g.Dist(0, 4) != 4 {
		t.Fatalf("Dist(0,4) = %d", g.Dist(0, 4))
	}
	if g.Diameter() != 4 {
		t.Fatalf("Diameter = %d, want 4", g.Diameter())
	}
	if g.Eccentricity(2) != 2 {
		t.Fatalf("Eccentricity(2) = %d, want 2", g.Eccentricity(2))
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := fromEdges(4, [2]NodeID{0, 1}, [2]NodeID{2, 3})
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("dist = %v, want unreachable for 2,3", dist)
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("Components = %v", comps)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !line(3).IsConnected() {
		t.Fatal("line reported disconnected")
	}
}

func TestBall(t *testing.T) {
	g := line(7)
	ball := g.Ball(3, 2)
	want := []NodeID{1, 2, 3, 4, 5}
	if len(ball) != len(want) {
		t.Fatalf("Ball = %v, want %v", ball, want)
	}
	for i := range want {
		if ball[i] != want[i] {
			t.Fatalf("Ball = %v, want %v", ball, want)
		}
	}
	if got := g.Ball(0, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Ball(0,0) = %v", got)
	}
}

func TestPowerLine(t *testing.T) {
	g := line(6)
	g2 := g.Power(2)
	// In the square of a line, i connects to i±1 and i±2.
	if !g2.HasEdge(0, 2) || !g2.HasEdge(1, 3) {
		t.Fatal("missing distance-2 edges in square")
	}
	if g2.HasEdge(0, 3) {
		t.Fatal("distance-3 edge present in square")
	}
	if !g.IsSubgraphOf(g2) {
		t.Fatal("G not a subgraph of G^2")
	}
}

func TestPowerExponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Power(0) did not panic")
		}
	}()
	line(3).Power(0)
}

// TestUnion pins that a union is one SetEdges call over both edge lists:
// shared edges count once.
func TestUnion(t *testing.T) {
	a := fromEdges(4, [2]NodeID{0, 1})
	b := fromEdges(4, [2]NodeID{2, 3}, [2]NodeID{1, 0})
	u := fromEdges(4, append(a.Edges(), b.Edges()...)...)
	if !u.HasEdge(0, 1) || !u.HasEdge(2, 3) || u.M() != 2 {
		t.Fatalf("union wrong: %v", u.Edges())
	}
}

func TestIndependence(t *testing.T) {
	g := line(5) // 0-1-2-3-4
	if !g.IsIndependent([]NodeID{0, 2, 4}) {
		t.Fatal("{0,2,4} should be independent")
	}
	if g.IsIndependent([]NodeID{0, 1}) {
		t.Fatal("{0,1} should not be independent")
	}
	if !g.IsMaximalIndependent([]NodeID{0, 2, 4}) {
		t.Fatal("{0,2,4} should be maximal")
	}
	if g.IsMaximalIndependent([]NodeID{0, 4}) {
		t.Fatal("{0,4} should not be maximal (2 uncovered... actually 2 is covered? 2's neighbors are 1,3; not in set; so not maximal)")
	}
	if g.IsMaximalIndependent([]NodeID{0, 1, 3}) {
		t.Fatal("{0,1,3} not independent")
	}
}

// Property: Power(1) equals the original graph.
func TestPowerOneIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		var edges [][2]NodeID
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
				}
			}
		}
		g := fromEdges(n, edges...)
		p := g.Power(1)
		return p.M() == g.M() && g.IsSubgraphOf(p) && p.IsSubgraphOf(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every edge (u,v) of Power(r) satisfies dist_G(u,v) in [1,r].
func TestPowerDistanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		r := 1 + rng.Intn(4)
		g := fromEdges(n, randomEdges(rng, lineEdges(n), n, n/2)...)
		p := g.Power(r)
		for _, e := range p.Edges() {
			d := g.Dist(e[0], e[1])
			if d < 1 || d > r {
				return false
			}
		}
		// And conversely every pair within distance r is an edge of p.
		for u := 0; u < n; u++ {
			dist := g.BFS(NodeID(u))
			for v := u + 1; v < n; v++ {
				if dist[v] != Unreachable && dist[v] <= r && !p.HasEdge(NodeID(u), NodeID(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle inequality along edges:
// |dist(u) - dist(v)| <= 1 for every edge (u,v) in a connected graph.
func TestBFSLipschitzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := fromEdges(n, randomEdges(rng, lineEdges(n), n, n)...) // a line: connected
		dist := g.BFS(0)
		for _, e := range g.Edges() {
			du, dv := dist[e[0]], dist[e[1]]
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := fromEdges(40, randomEdges(rng, nil, 40, 30)...)
	seen := map[NodeID]bool{}
	for _, comp := range g.Components() {
		for _, v := range comp {
			if seen[v] {
				t.Fatalf("node %d in two components", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 40 {
		t.Fatalf("components cover %d nodes, want 40", len(seen))
	}
}

// graphEqual reports structural equality: same node count and edge set.
func graphEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	return a.IsSubgraphOf(b) && b.IsSubgraphOf(a)
}

// TestResetMatchesNew pins the structure-sharing contract: a Reset graph is
// observably identical to New(n) — across shrinks, growths and re-fills.
func TestResetMatchesNew(t *testing.T) {
	g := line(8)
	for _, n := range []int{8, 3, 12, 0, 5} {
		g.Reset(n)
		if !graphEqual(g, New(n)) {
			t.Fatalf("Reset(%d) != New(%d): edges %v", n, n, g.Edges())
		}
		g.SetEdges(n, lineEdges(n))
		if !graphEqual(g, line(n)) {
			t.Fatalf("rebuilt line(%d) after Reset diverged: %v", n, g.Edges())
		}
		if n > 1 && g.Diameter() != n-1 {
			t.Fatalf("stale diameter memo after Reset: %d", g.Diameter())
		}
	}
}

// TestResetReusesRows asserts the point of Reset: rebuilding a same-shaped
// graph into a Reset receiver from recycled forward rows performs no
// allocation.
func TestResetReusesRows(t *testing.T) {
	g := line(64)
	var rows ForwardRows
	allocs := testing.AllocsPerRun(20, func() {
		g.Reset(64)
		rows.Reset(64)
		for i := 0; i < 64; i++ {
			if i < 63 {
				rows.Arcs = append(rows.Arcs, int32(i+1))
			}
			rows.EndRow()
		}
		g.SetForward(&rows)
		if g.M() != 63 {
			t.Fatalf("M = %d, want 63", g.M())
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset rebuild allocates %.0f times, want 0", allocs)
	}
}

// TestPowerIntoMatchesPower pins that the slice-based bounded BFS produces
// exactly Ball-derived powers, across reuse of one destination.
func TestPowerIntoMatchesPower(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dst := New(0)
	for round := 0; round < 30; round++ {
		n := 2 + rng.Intn(20)
		r := 1 + rng.Intn(4)
		g := fromEdges(n, randomEdges(rng, lineEdges(n), n, n/2)...)
		want := g.Power(r)
		if got := g.PowerInto(r, dst); !graphEqual(got, want) {
			t.Fatalf("PowerInto(%d) diverged on n=%d: %v vs %v", r, n, got.Edges(), want.Edges())
		}
	}
	g := line(4)
	defer func() {
		if recover() == nil {
			t.Fatal("PowerInto onto its receiver did not panic")
		}
	}()
	g.PowerInto(2, g)
}

// TestPowerRowsReusesRows pins what PowerRows' pooled scratch is for: with
// rows kept across calls, a warm call allocates nothing.
func TestPowerRowsReusesRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts at random, so the pooled scratch may allocate")
	}
	g := line(200)
	var rows ForwardRows
	g.PowerRows(3, &rows)
	if allocs := testing.AllocsPerRun(20, func() { g.PowerRows(3, &rows) }); allocs != 0 {
		t.Fatalf("warm PowerRows allocates %.0f times, want 0", allocs)
	}
	if want := 3*200 - 6; len(rows.Arcs) != want {
		t.Fatalf("line(200)^3 has %d edges, want %d", len(rows.Arcs), want)
	}
}

// TestEdgeSeqMatchesEdges pins the streaming iterator's contract: EdgeSeq
// yields exactly the pairs Edges materializes, in the same lexicographic
// order — the property the randomized builders rely on to keep their rng
// streams (and hence the golden traces) unchanged after switching.
func TestEdgeSeqMatchesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		g := fromEdges(n, randomEdges(rng, nil, n, 2*n)...)
		want := g.Edges()
		i := 0
		for u, v := range g.EdgeSeq() {
			if i >= len(want) || want[i][0] != u || want[i][1] != v {
				t.Fatalf("trial %d: EdgeSeq[%d] = (%d,%d), want %v", trial, i, u, v, want[i:])
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("trial %d: EdgeSeq yielded %d edges, Edges has %d", trial, i, len(want))
		}
	}
}

// TestEdgeSeqEarlyBreak pins that a consumer can stop the stream mid-walk.
func TestEdgeSeqEarlyBreak(t *testing.T) {
	g := line(10)
	count := 0
	for range g.EdgeSeq() {
		count++
		if count == 3 {
			break
		}
	}
	if count != 3 {
		t.Fatalf("walked %d edges after break at 3", count)
	}
}

// TestSetForwardMatchesSetEdges pins the two entry points to one another:
// random forward rows and the same edges handed to SetEdges reversed, in
// shuffled order and partly repeated, give byte for byte the same CSR
// block, on fresh and recycled storage alike, and rows out of order or out
// of range panic.
func TestSetForwardMatchesSetEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	recycled := New(0)
	for _, tc := range []struct {
		n    int
		prob float64
	}{{0, 0}, {1, 0}, {2, 1}, {40, 0.1}, {60, 0.5}, {30, 1}} {
		var rows ForwardRows
		rows.Reset(tc.n)
		var edges [][2]NodeID
		for u := 0; u < tc.n; u++ {
			for v := u + 1; v < tc.n; v++ {
				if rng.Float64() < tc.prob {
					rows.Arcs = append(rows.Arcs, int32(v))
					edges = append(edges, [2]NodeID{NodeID(v), NodeID(u)})
					if rng.Intn(4) == 0 {
						edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
					}
				}
			}
			rows.EndRow()
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		ref := fromEdges(tc.n, edges...)
		ro, ra := ref.CSR()
		for _, g := range []*Graph{New(0), recycled} {
			g.SetForward(&rows)
			go_, ga := g.CSR()
			if !slices.Equal(go_, ro) || !slices.Equal(ga, ra) || g.M() != ref.M() {
				t.Fatalf("n=%d p=%g: SetForward CSR differs from the SetEdges build", tc.n, tc.prob)
			}
		}
	}
	for name, arcs := range map[string][]int32{
		"descending":   {2, 1},
		"duplicate":    {1, 1},
		"self":         {0},
		"out of range": {3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s forward row did not panic", name)
				}
			}()
			k := int32(len(arcs))
			New(0).SetForward(&ForwardRows{Off: []int32{0, k, k, k}, Arcs: arcs})
		}()
	}
}
