package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refGraph is the pre-refactor slice-of-slices adjacency, kept as the
// executable specification the flat-CSR Graph is property-tested against:
// every query below is re-derived from this naive form and compared
// field-for-field with the CSR answer on randomized edge streams.
type refGraph struct {
	n    int
	adj  []map[NodeID]bool
	rows [][]NodeID // sorted adj rows, filled on first read after a change
}

func newRef(n int) *refGraph {
	adj := make([]map[NodeID]bool, n)
	for i := range adj {
		adj[i] = map[NodeID]bool{}
	}
	return &refGraph{n: n, adj: adj}
}

func (r *refGraph) addEdge(u, v NodeID) {
	r.adj[u][v] = true
	r.adj[v][u] = true
	r.rows = nil
}

func (r *refGraph) neighbors(u NodeID) []NodeID {
	if r.rows == nil {
		r.rows = make([][]NodeID, r.n)
		for w, nb := range r.adj {
			for v := range nb {
				r.rows[w] = append(r.rows[w], v)
			}
			slices.Sort(r.rows[w])
		}
	}
	return r.rows[u]
}

func (r *refGraph) m() int {
	total := 0
	for _, nb := range r.adj {
		total += len(nb)
	}
	return total / 2
}

func (r *refGraph) bfs(src NodeID) []int {
	dist := make([]int, r.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range r.neighbors(u) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func (r *refGraph) diameter() int {
	max := 0
	for u := 0; u < r.n; u++ {
		for _, d := range r.bfs(NodeID(u)) {
			if d > max {
				max = d
			}
		}
	}
	return max
}

func (r *refGraph) components() [][]NodeID {
	seen := make([]bool, r.n)
	var comps [][]NodeID
	for u := 0; u < r.n; u++ {
		if seen[u] {
			continue
		}
		var comp []NodeID
		for v, d := range r.bfs(NodeID(u)) {
			if d != Unreachable {
				comp = append(comp, NodeID(v))
				seen[v] = true
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func (r *refGraph) greedyMIS() []NodeID {
	blocked := make([]bool, r.n)
	var mis []NodeID
	for u := 0; u < r.n; u++ {
		if blocked[u] {
			continue
		}
		mis = append(mis, NodeID(u))
		for v := range r.adj[u] {
			blocked[v] = true
		}
	}
	return mis
}

// checkAgainstRef compares every CSR query against its naive re-derivation.
func checkAgainstRef(t *testing.T, g *Graph, r *refGraph, rng *rand.Rand) {
	t.Helper()
	if g.N() != r.n {
		t.Fatalf("N = %d, want %d", g.N(), r.n)
	}
	if g.M() != r.m() {
		t.Fatalf("M = %d, want %d", g.M(), r.m())
	}
	maxDeg := 0
	for u := 0; u < r.n; u++ {
		want := r.neighbors(NodeID(u))
		got := g.Neighbors(NodeID(u))
		if !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got, want)
		}
		if g.Degree(NodeID(u)) != len(want) {
			t.Fatalf("Degree(%d) = %d, want %d", u, g.Degree(NodeID(u)), len(want))
		}
		if len(want) > maxDeg {
			maxDeg = len(want)
		}
	}
	if g.MaxDegree() != maxDeg {
		t.Fatalf("MaxDegree = %d, want %d", g.MaxDegree(), maxDeg)
	}
	// Random pair membership probes, hitting both present and absent edges.
	for i := 0; i < 50 && r.n >= 2; i++ {
		u := NodeID(rng.Intn(r.n))
		v := NodeID(rng.Intn(r.n))
		if u == v {
			continue
		}
		if g.HasEdge(u, v) != r.adj[u][v] {
			t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, g.HasEdge(u, v), r.adj[u][v])
		}
	}
	var wantEdges [][2]NodeID
	for u := 0; u < r.n; u++ {
		for _, v := range r.neighbors(NodeID(u)) {
			if NodeID(u) < v {
				wantEdges = append(wantEdges, [2]NodeID{NodeID(u), v})
			}
		}
	}
	if gotEdges := g.Edges(); !slices.Equal(gotEdges, wantEdges) {
		t.Fatalf("Edges = %v, want %v", gotEdges, wantEdges)
	}
	for i := 0; i < 3 && r.n > 0; i++ {
		src := NodeID(rng.Intn(r.n))
		if got, want := g.BFS(src), r.bfs(src); !slices.Equal(got, want) {
			t.Fatalf("BFS(%d) = %v, want %v", src, got, want)
		}
	}
	if got, want := g.Diameter(), r.diameter(); got != want {
		t.Fatalf("Diameter = %d, want %d", got, want)
	}
	wantComps := r.components()
	gotComps := g.Components()
	if len(gotComps) != len(wantComps) {
		t.Fatalf("Components: %d components, want %d", len(gotComps), len(wantComps))
	}
	for i := range wantComps {
		if !slices.Equal(gotComps[i], wantComps[i]) {
			t.Fatalf("component %d = %v, want %v", i, gotComps[i], wantComps[i])
		}
	}
	if got, want := g.IsConnected(), len(wantComps) <= 1; got != want {
		t.Fatalf("IsConnected = %v, want %v", got, want)
	}
	if got, want := g.GreedyMIS(), r.greedyMIS(); !slices.Equal(got, want) {
		t.Fatalf("GreedyMIS = %v, want %v", got, want)
	}
	if mis := g.GreedyMIS(); len(mis) > 0 && !g.IsMaximalIndependent(mis) {
		t.Fatalf("GreedyMIS %v is not maximal independent", mis)
	}
}

// maxFuzzNodes caps a fuzz input's node count, so the reference's
// all-sources diameter stays fast.
const maxFuzzNodes = 64

// decodeEdges reads a fuzz input as an edge list: byte 0 picks n in
// [0, maxFuzzNodes], and each following byte pair (a, b) is the edge
// (a mod n, b mod n), self-pairs skipped. Repeats, both orientations of one
// edge, hub rows and rows listed in descending order all come through as
// they are, for SetEdges to merge.
func decodeEdges(data []byte) (int, [][2]NodeID) {
	if len(data) == 0 {
		return 0, nil
	}
	n := int(data[0]) % (maxFuzzNodes + 1)
	var edges [][2]NodeID
	for i := 1; i+1 < len(data) && n > 1; i += 2 {
		if u, v := NodeID(int(data[i])%n), NodeID(int(data[i+1])%n); u != v {
			edges = append(edges, [2]NodeID{u, v})
		}
	}
	return n, edges
}

// FuzzCSRMatchesReference builds a graph from a generated edge list, once
// into fresh storage and once into a graph recycled across inputs, and
// compares every query of both with the naive reference built from the same
// list. This is the equivalence contract of the flat-CSR core. The seed
// corpus holds edge streams of uniform, hub-heavy and descending-source
// shapes, with about a quarter of the edges repeated reversed.
func FuzzCSRMatchesReference(f *testing.F) {
	recycled := New(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeEdges(data)
		r := newRef(n)
		for _, e := range edges {
			r.addEdge(e[0], e[1])
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		fresh := new(Graph)
		fresh.SetEdges(n, slices.Clone(edges))
		checkAgainstRef(t, fresh, r, rng)
		recycled.SetEdges(n, slices.Clone(edges))
		checkAgainstRef(t, recycled, r, rng)
	})
}

// TestCSRRecycledStorageMatchesFresh pins the structure-sharing contract:
// a Reset graph and a CloneInto destination must be observably identical to
// freshly allocated ones, across shrinking and growing node counts.
func TestCSRRecycledStorageMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recycled := New(0)
	clone := New(0)
	for _, n := range []int{30, 7, 64, 1, 50} {
		recycled.Reset(n)
		if !graphEqual(recycled, New(n)) {
			t.Fatalf("Reset(%d) kept edges: %v", n, recycled.Edges())
		}
		r := newRef(n)
		edges := randomEdges(rng, nil, n, 3*n)
		for _, e := range edges {
			r.addEdge(e[0], e[1])
		}
		recycled.SetEdges(n, edges)
		checkAgainstRef(t, recycled, r, rng)
		checkAgainstRef(t, recycled.CloneInto(clone), r, rng)
	}
}

// TestApproxDiameterExactBelowCutoff: at or below ExactDiameterCutoff nodes
// ApproxDiameter must be the exact diameter for every (k, seed) — the
// property that keeps the shipped experiment tables byte-identical.
func TestApproxDiameterExactBelowCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 9, 33, 80} {
		g := fromEdges(n, randomEdges(rng, nil, n, 2*n)...)
		want := g.Diameter()
		for _, k := range []int{0, 1, 4} {
			for _, seed := range []int64{1, 99} {
				if got := g.ApproxDiameter(k, seed); got != want {
					t.Fatalf("n=%d: ApproxDiameter(%d,%d) = %d, want exact %d", n, k, seed, got, want)
				}
			}
		}
	}
}

// TestApproxDiameterAboveCutoff exercises the sampled double-sweep path on
// graphs past the cutoff: the estimate is a diameter lower bound, exact on
// paths (a double sweep from any source reaches an endpoint), deterministic
// in (k, seed), and superseded by the exact value once Diameter has run.
func TestApproxDiameterAboveCutoff(t *testing.T) {
	n := ExactDiameterCutoff + 101
	g := line(n)
	want := n - 1
	if got := g.ApproxDiameter(1, 7); got != want {
		t.Fatalf("line ApproxDiameter = %d, want %d", got, want)
	}

	// A cycle: every double sweep finds an antipodal pair, so the sample is
	// exact at n/2 regardless of the source draw.
	cyc := fromEdges(n, append(lineEdges(n), [2]NodeID{0, NodeID(n - 1)})...)
	if got, want := cyc.ApproxDiameter(2, 3), n/2; got != want {
		t.Fatalf("cycle ApproxDiameter = %d, want %d", got, want)
	}

	// A star: diameter 2, and any double sweep sees it (sweep 1 ends on a
	// leaf, whose eccentricity is 2). Also checks determinism and the
	// lower-bound property against the cheap exact value.
	var spokes [][2]NodeID
	for i := 1; i < n; i++ {
		spokes = append(spokes, [2]NodeID{0, NodeID(i)})
	}
	star := fromEdges(n, spokes...)
	a := star.ApproxDiameter(3, 5)
	if b := star.ApproxDiameter(3, 5); b != a {
		t.Fatalf("ApproxDiameter not deterministic: %d then %d", a, b)
	}
	if a != 2 {
		t.Fatalf("star ApproxDiameter = %d, want 2", a)
	}
	if exact := star.Diameter(); a > exact {
		t.Fatalf("ApproxDiameter %d exceeds exact diameter %d", a, exact)
	}
	// Once the exact diameter is memoized it wins over any sample.
	if got := star.ApproxDiameter(1, 12345); got != 2 {
		t.Fatalf("post-Diameter ApproxDiameter = %d, want exact 2", got)
	}

	// Building the graph again drops the memo: closing the line into a
	// cycle halves its diameter, and the refreshed sample must see it.
	g.SetEdges(n, append(lineEdges(n), [2]NodeID{0, NodeID(n - 1)}))
	if got := g.ApproxDiameter(1, 7); got != n/2 {
		t.Fatalf("after rebuilding into a cycle: ApproxDiameter = %d, want %d", got, n/2)
	}
}

// serialApproxDiameter is the single-goroutine double-sweep loop
// ApproxDiameter ran before its sweeps went parallel, kept as the reference
// the concurrent version must reproduce.
func serialApproxDiameter(g *Graph, k int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	dist := make([]int, g.n)
	resetDist(dist)
	var queue []NodeID
	best := 0
	for i := 0; i < k; i++ {
		src := NodeID(rng.Intn(g.n))
		queue = g.bfsInto(src, dist, queue)
		far, fd := src, 0
		for _, v := range queue {
			if d := dist[v]; d > fd {
				far, fd = v, d
			}
			dist[v] = Unreachable
		}
		queue = g.bfsInto(far, dist, queue)
		for _, v := range queue {
			if d := dist[v]; d > best {
				best = d
			}
			dist[v] = Unreachable
		}
	}
	return best
}

// randomGeometric is a unit-disk graph over n uniform points in a
// side×side square, built by the all-pairs scan.
func randomGeometric(n int, side float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*side, rng.Float64()*side
	}
	var edges [][2]NodeID
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if dx, dy := xs[u]-xs[v], ys[u]-ys[v]; dx*dx+dy*dy <= 1 {
				edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
			}
		}
	}
	return fromEdges(n, edges...)
}

// TestApproxDiameterMatchesSerialSweeps checks the concurrent sweeps
// against the serial loop on random geometric graphs past the cutoff — a
// connected one and a sparse one with many components — for several k and
// seeds, at one and two workers. Each run uses a fresh clone, so no answer
// comes from the memo of another.
func TestApproxDiameterMatchesSerialSweeps(t *testing.T) {
	n := ExactDiameterCutoff + 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"connected", randomGeometric(n, 20, 41)},
		{"sparse", randomGeometric(n, 45, 42)},
	} {
		name, g := tc.name, tc.g
		for _, k := range []int{1, 3, 8} {
			for _, seed := range []int64{1, 77} {
				want := serialApproxDiameter(g, k, seed)
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					if got := g.Clone().ApproxDiameter(k, seed); got != want {
						t.Fatalf("%s k=%d seed=%d GOMAXPROCS=%d: ApproxDiameter = %d, serial sweeps %d",
							name, k, seed, procs, got, want)
					}
				}
			}
		}
	}
}

// TestSampledDiameter pins the shared estimate to ApproxDiameter(8, 1) and
// checks that reading it memoizes that pair, so every later caller (the
// horizon, FMMB's D, amacsim's header) reuses it instead of re-sweeping.
func TestSampledDiameter(t *testing.T) {
	g := line(ExactDiameterCutoff + 101)
	got := g.SampledDiameter()
	if !g.adiamOK || g.adiamK != 8 || g.adiamSeed != 1 || g.adiam != got {
		t.Fatalf("SampledDiameter = %d left memo (%d, ok=%v, k=%d, seed=%d), want (%d, k=8, seed=1)",
			got, g.adiam, g.adiamOK, g.adiamK, g.adiamSeed, got)
	}
}

// TestBFSQueriesAllocationFree pins the pooled-scratch contract: once the
// BFS pool is warm, the distance/connectivity/eccentricity queries the
// builders and runners issue per trial must not allocate. A regression here
// puts an O(n) allocation back into every rejected topology draw.
func TestBFSQueriesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts at random, so the pooled scratch may allocate")
	}
	g := line(512)
	// Warm the pool and each query's internal state.
	g.Dist(0, 511)
	g.Eccentricity(5)
	g.IsConnected()

	allocs := testing.AllocsPerRun(20, func() {
		if g.Dist(0, 511) != 511 {
			t.Fatal("wrong distance")
		}
		if g.Eccentricity(5) != 506 {
			t.Fatal("wrong eccentricity")
		}
		if !g.IsConnected() {
			t.Fatal("line disconnected")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm BFS queries allocate %.1f times per run, want 0", allocs)
	}
}

// TestSharedGraphQueriesConcurrent hammers the read-only query surface of
// one built graph from many goroutines — the sharing pattern of
// parallel harness workers. Run under -race this pins the lock discipline
// of the Diameter/ApproxDiameter memo and the pooled BFS scratch.
func TestSharedGraphQueriesConcurrent(t *testing.T) {
	g := line(ExactDiameterCutoff + 50)
	done := make(chan int, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			d := 0
			for i := 0; i < 20; i++ {
				switch w % 4 {
				case 0:
					d = g.ApproxDiameter(2, 1)
				case 1:
					d = g.Diameter()
				case 2:
					d = g.Eccentricity(NodeID(i))
				case 3:
					g.BFS(NodeID(w * 100))
					d = g.Dist(0, NodeID(w*100+i))
				}
			}
			done <- d
		}(w)
	}
	for w := 0; w < 8; w++ {
		if d := <-done; d < 0 {
			t.Fatalf("worker returned %d", d)
		}
	}
}
