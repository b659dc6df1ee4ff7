package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"amac/internal/graph"
)

// isRRestricted reports whether every G′ edge of d connects nodes within r
// hops in G (the r-restricted constraint of Section 2).
func isRRestricted(d *Dual, r int) bool {
	for u := 0; u < d.G.N(); u++ {
		dist := d.G.BFS(graph.NodeID(u))
		for _, v := range d.GPrime.Neighbors(graph.NodeID(u)) {
			if v < graph.NodeID(u) {
				continue
			}
			if dist[v] == graph.Unreachable || dist[v] > r {
				return false
			}
		}
	}
	return true
}

// restriction returns the smallest r for which d is r-restricted, or -1 if
// some G′ edge joins nodes disconnected in G (so no r suffices).
func restriction(d *Dual) int {
	r := 0
	for u := 0; u < d.G.N(); u++ {
		dist := d.G.BFS(graph.NodeID(u))
		for _, v := range d.GPrime.Neighbors(graph.NodeID(u)) {
			if dist[v] == graph.Unreachable {
				return -1
			}
			if dist[v] > r {
				r = dist[v]
			}
		}
	}
	return r
}

func TestLineDual(t *testing.T) {
	d := Line(10)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.G.Diameter() != 9 {
		t.Fatalf("Diameter = %d, want 9", d.G.Diameter())
	}
	if len(d.UnreliableEdges()) != 0 {
		t.Fatal("reliable dual has unreliable edges")
	}
	if !isRRestricted(d, 1) {
		t.Fatal("G'=G dual must be 1-restricted")
	}
	if restriction(d) != 1 {
		t.Fatalf("Restriction = %d, want 1", restriction(d))
	}
}

func TestRingStarTreeGrid(t *testing.T) {
	if d := Ring(8); d.G.Diameter() != 4 || d.Validate() != nil {
		t.Fatalf("ring: D=%d err=%v", d.G.Diameter(), d.Validate())
	}
	if d := Star(9); d.G.Diameter() != 2 || d.G.Degree(0) != 8 {
		t.Fatalf("star: D=%d deg=%d", d.G.Diameter(), d.G.Degree(0))
	}
	if d := CompleteBinaryTree(15); !d.G.IsConnected() || d.G.M() != 14 {
		t.Fatalf("tree: connected=%v M=%d", d.G.IsConnected(), d.G.M())
	}
	g := Grid(4, 5)
	if g.N() != 20 || g.G.Diameter() != 3+4 {
		t.Fatalf("grid: n=%d D=%d", g.N(), g.G.Diameter())
	}
	if g.Embed == nil {
		t.Fatal("grid should carry its embedding")
	}
}

func TestRRestrictedConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range []int{1, 2, 3, 5} {
		d := LineRRestricted(30, r, 1.0, rng)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if !isRRestricted(d, r) {
			t.Fatalf("r=%d construction is not r-restricted", r)
		}
		if got := restriction(d); got != r {
			t.Fatalf("Restriction = %d, want %d (p=1 should realize the max)", got, r)
		}
		if r > 1 && isRRestricted(d, r-1) {
			t.Fatalf("p=1 construction should not be (r-1)-restricted for r=%d", r)
		}
	}
}

func TestRRestrictedProbabilistic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := LineRRestricted(40, 4, 0.3, rng)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isRRestricted(d, 4) {
		t.Fatal("not 4-restricted")
	}
	if len(d.UnreliableEdges()) == 0 {
		t.Fatal("expected some unreliable edges at p=0.3 on n=40")
	}
}

func TestArbitraryNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := Line(50)
	d := ArbitraryNoise(base.G, 20, rng, "test")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.UnreliableEdges()); got != 20 {
		t.Fatalf("unreliable edges = %d, want 20", got)
	}
}

// failAfter is a rand.Source that fails the test at its limit+1st draw,
// so a builder that draws without bound fails instead of hanging.
type failAfter struct {
	t     *testing.T
	src   rand.Source
	limit int
}

func (s *failAfter) Int63() int64 {
	if s.limit == 0 {
		s.t.Fatal("builder kept drawing past its draw limit")
	}
	s.limit--
	return s.src.Int63()
}

func (s *failAfter) Seed(seed int64) { s.src.Seed(seed) }

// TestArbitraryNoiseSaturates pins that an extra beyond the non-adjacent
// pairs n nodes hold yields the complete graph: drawing stops once every
// pair is accepted, however large extra is, and a try budget too large for
// an int saturates instead of wrapping to no draws at all.
func TestArbitraryNoiseSaturates(t *testing.T) {
	src := &failAfter{t: t, src: rand.NewSource(1), limit: 1_000_000}
	if d := ArbitraryNoise(Line(4).G, 1_000_000_000_000, rand.New(src), "wild"); d.GPrime.M() != 6 {
		t.Fatalf("extra = 10^12 on a 4-node line: G′ has %d edges, want K4's 6", d.GPrime.M())
	}
	b, err := Build("noisy-line", Params{"n": 4, "extra": 2e17})
	if err != nil {
		t.Fatal(err)
	}
	if m := b.Dual.GPrime.M(); m != 6 {
		t.Fatalf("extra = 2·10^17 on a 4-node line: G′ has %d edges, want K4's 6", m)
	}
}

func TestRandomGeometricGreyZone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := ConnectedRandomGeometric(60, 5, 2.0, 0.5, rng, 50)
	if d == nil {
		t.Fatal("no connected instance found")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !d.Embed.VerifyGreyZone(d.G, d.GPrime, 2.0) {
		t.Fatal("grey zone constraint violated")
	}
}

func TestParallelLinesC(t *testing.T) {
	c := NewParallelLinesC(10)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.N() != 20 {
		t.Fatalf("N = %d, want 20", c.N())
	}
	// Line A is 0..9, line B is 10..19.
	if c.A(1) != 0 || c.A(10) != 9 || c.B(1) != 10 || c.B(10) != 19 {
		t.Fatal("node numbering wrong")
	}
	// Reliable edges only along the lines: a1-a2 yes, a1-b1 no.
	if !c.G.HasEdge(c.A(1), c.A(2)) || c.G.HasEdge(c.A(1), c.B(1)) {
		t.Fatal("reliable edges wrong")
	}
	// Cross edges a_i–b_{i+1} and b_i–a_{i+1} are unreliable.
	if !c.GPrime.HasEdge(c.A(3), c.B(4)) || !c.GPrime.HasEdge(c.B(3), c.A(4)) {
		t.Fatal("missing cross edges")
	}
	if c.G.HasEdge(c.A(3), c.B(4)) {
		t.Fatal("cross edge should be unreliable")
	}
	// Grey-zone legality: every G' edge at most the declared constant, and
	// that constant is modest (the paper: "sufficiently large c").
	cc := c.GreyZoneConstant()
	if cc < 1.4 || cc > 1.5 {
		t.Fatalf("grey zone constant = %v, want ~1.45", cc)
	}
	if !c.Embed.VerifyGreyZone(c.G, c.GPrime, cc) {
		t.Fatal("network C violates its own grey zone constant")
	}
	// The two lines are disconnected in G.
	if c.G.Dist(c.A(1), c.B(1)) != graph.Unreachable {
		t.Fatal("lines should be disconnected in G")
	}
	// G' connects everything.
	if !c.GPrime.IsConnected() {
		t.Fatal("G' should be connected")
	}
}

func TestParallelLinesNotRRestricted(t *testing.T) {
	// The cross edges join nodes in different G components, so no r works:
	// this is exactly the structural gap between r-restricted and grey zone
	// the paper highlights.
	c := NewParallelLinesC(8)
	if got := restriction(c.Dual); got != -1 {
		t.Fatalf("Restriction = %d, want -1 (cross-component G' edges)", got)
	}
	if isRRestricted(c.Dual, 100) {
		t.Fatal("network C must not be r-restricted for any r")
	}
}

func TestStarChoke(t *testing.T) {
	s := NewStarChoke(6)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.N() != 7 {
		t.Fatalf("N = %d, want 7", s.N())
	}
	hub, recv := s.Hub(), s.Receiver()
	if s.G.Degree(hub) != 6 { // 5 leaves + receiver
		t.Fatalf("hub degree = %d, want 6", s.G.Degree(hub))
	}
	if s.G.Degree(recv) != 1 {
		t.Fatalf("receiver degree = %d, want 1", s.G.Degree(recv))
	}
	for i := 1; i < 6; i++ {
		if !s.G.HasEdge(s.Source(i), hub) {
			t.Fatalf("source %d not attached to hub", i)
		}
		if s.G.HasEdge(s.Source(i), recv) {
			t.Fatalf("source %d bypasses the choke point", i)
		}
	}
}

// Property: for random r and n, the r-restricted builder always produces a
// valid dual that is r-restricted.
func TestRRestrictedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		r := 1 + rng.Intn(5)
		p := rng.Float64()
		d := LineRRestricted(n, r, p, rng)
		return d.Validate() == nil && isRRestricted(d, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ParallelLinesC has exactly 2(D-1) reliable and 2(D-1)
// unreliable edges for any D.
func TestParallelLinesEdgeCount(t *testing.T) {
	for _, d := range []int{2, 3, 5, 17, 64} {
		c := NewParallelLinesC(d)
		if got := c.G.M(); got != 2*(d-1) {
			t.Fatalf("D=%d: reliable edges = %d, want %d", d, got, 2*(d-1))
		}
		if got := len(c.UnreliableEdges()); got != 2*(d-1) {
			t.Fatalf("D=%d: unreliable edges = %d, want %d", d, got, 2*(d-1))
		}
	}
}

// TestPodsDecomposition pins the property the sharded executor exploits:
// a pods dual splits into exactly k G′-components, each a contiguous node
// range, with every G′ edge inside its pod.
func TestPodsDecomposition(t *testing.T) {
	for _, k := range []int{1, 3, 7} {
		d := PodsRRestrictedInto(nil, 40, k, 2, 0.7, rand.New(rand.NewSource(3)))
		if err := d.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		comps := d.GPrime.Components()
		if len(comps) != k {
			t.Fatalf("k=%d: G′ has %d components", k, len(comps))
		}
		pod := make([]int, 40)
		for i := 0; i < k; i++ {
			for v := i * 40 / k; v < (i+1)*40/k; v++ {
				pod[v] = i
			}
		}
		for u, v := range d.GPrime.EdgeSeq() {
			if pod[u] != pod[v] {
				t.Fatalf("k=%d: G′ edge (%d,%d) crosses a pod boundary", k, u, v)
			}
		}
	}
}
