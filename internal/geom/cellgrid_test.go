package geom

import (
	"math/rand"
	"slices"
	"testing"

	"amac/internal/graph"
)

// forceCellGrid lowers the grid threshold so the cell-grid path runs at test
// sizes, restoring it on cleanup.
func forceCellGrid(t *testing.T, min int) {
	t.Helper()
	old := cellGridMinNodes
	cellGridMinNodes = min
	t.Cleanup(func() { cellGridMinNodes = old })
}

func edgesOf(g *graph.Graph) [][2]graph.NodeID { return g.Edges() }

// TestUnitDiskCellGridMatchesScan forces the cell-grid sweep at small n and
// diffs its edge set against the all-pairs scan on randomized embeddings —
// the equivalence that lets large-n builds switch paths without perturbing
// any topology.
func TestUnitDiskCellGridMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		n      int
		side   float64
		radius float64
		seed   int64
	}{
		{1, 1, 1, 1},
		{2, 0.5, 1, 2},
		{40, 4, 1, 3},
		{120, 8, 1, 4},
		{120, 8, 2.5, 5},
		{200, 3, 1, 6},   // dense: most pairs in range
		{200, 40, 1, 7},  // sparse: most cells empty
		{64, 6, 0.3, 8},  // radius well under cell side of 1
		{256, 100, 1, 9}, // sparse over a wide square: cells of extent/16
	} {
		e := RandomUniform(tc.n, tc.side, rand.New(rand.NewSource(tc.seed)))

		cellGridMinNodes = 1 << 30
		scan := e.UnitDisk(tc.radius)

		forceCellGrid(t, 0)
		gridded := e.UnitDisk(tc.radius)

		if !slices.Equal(edgesOf(scan), edgesOf(gridded)) {
			t.Fatalf("n=%d side=%g radius=%g: cell-grid edges differ from scan\nscan: %v\ngrid: %v",
				tc.n, tc.side, tc.radius, edgesOf(scan), edgesOf(gridded))
		}
	}
}

// TestGreyZoneCellGridMatchesScan checks the stronger grey-zone contract:
// not just the same edge set but the same random stream consumption, so a
// seeded build is bit-identical whichever path runs. The post-build draw
// comparison fails if either path consumes one extra or one fewer variate.
func TestGreyZoneCellGridMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		n    int
		side float64
		c    float64
		p    float64
		seed int64
	}{
		{50, 5, 1.5, 0.5, 11},
		{120, 8, 2, 0.3, 12},
		{120, 8, 1, 0.5, 13}, // c = 1: no grey zone, no draws at all
		{200, 6, 3, 1, 14},   // p = 1: every candidate taken, still no draws
		{200, 30, 1.7, 0.9, 15},
		{256, 100, 2, 0.5, 16}, // sparse over a wide square: cells of extent/16
	} {
		e := RandomUniform(tc.n, tc.side, rand.New(rand.NewSource(tc.seed)))

		cellGridMinNodes = 1 << 30
		scanRng := rand.New(rand.NewSource(tc.seed + 1000))
		scan := e.GreyZone(tc.c, tc.p, scanRng)

		forceCellGrid(t, 0)
		gridRng := rand.New(rand.NewSource(tc.seed + 1000))
		gridded := e.GreyZone(tc.c, tc.p, gridRng)

		if !slices.Equal(edgesOf(scan), edgesOf(gridded)) {
			t.Fatalf("n=%d c=%g p=%g: grey-zone cell-grid edges differ from scan",
				tc.n, tc.c, tc.p)
		}
		if a, b := scanRng.Int63(), gridRng.Int63(); a != b {
			t.Fatalf("n=%d c=%g p=%g: random streams diverged (next draw %d vs %d) — the paths consumed different variate counts",
				tc.n, tc.c, tc.p, a, b)
		}
		if !e.VerifyGreyZone(e.UnitDisk(1), gridded, tc.c) {
			t.Fatalf("n=%d c=%g p=%g: cell-grid grey zone violates the constraint", tc.n, tc.c, tc.p)
		}
	}
}

// TestCellGridIntoReusesStorage checks the grid path composes with the
// structure-sharing Into builders: emitting into a recycled graph through a
// recycled Scratch matches a fresh build.
func TestCellGridIntoReusesStorage(t *testing.T) {
	forceCellGrid(t, 0)
	recycled, s := graph.New(0), new(Scratch)
	for _, seed := range []int64{21, 22, 23} {
		e := RandomUniform(150, 7, rand.New(rand.NewSource(seed)))
		fresh := e.UnitDisk(1)
		e.UnitDiskInto(recycled, 1, s)
		if !slices.Equal(edgesOf(fresh), edgesOf(recycled)) {
			t.Fatalf("seed %d: UnitDiskInto on recycled storage differs from fresh build", seed)
		}
	}
}

// TestWarmBuildsAllocateNothing pins what the Scratch is for: rebuilding
// into recycled graphs through a recycled Scratch allocates nothing, for
// UnitDiskInto and GreyZoneDualInto, on the all-pairs scan and on the cell
// grid.
func TestWarmBuildsAllocateNothing(t *testing.T) {
	e := RandomUniform(300, 8, rand.New(rand.NewSource(31)))
	rng := rand.New(rand.NewSource(32))
	for _, min := range []int{len(e) + 1, 0} {
		forceCellGrid(t, min)
		g, gp, s := graph.New(0), graph.New(0), new(Scratch)
		builds := map[string]func(){
			"UnitDiskInto":     func() { e.UnitDiskInto(g, 1, s) },
			"GreyZoneDualInto": func() { e.GreyZoneDualInto(g, gp, 1.7, 0.5, rng, s) },
		}
		for name, build := range builds {
			build()
			if allocs := testing.AllocsPerRun(10, build); allocs != 0 {
				t.Errorf("%s, grid threshold %d: warm build allocates %.0f times, want 0", name, min, allocs)
			}
		}
	}
}

// TestCellGridCellsBoundedByN pins that the grid is sized by the node count,
// not by the area of the embedding's square: a sparse embedding over a wide
// square gets cells of side extent/⌈√n⌉ instead of one radius-sized cell per
// unit of area (10⁶ cells here), and still finds every in-range pair.
func TestCellGridCellsBoundedByN(t *testing.T) {
	const n = 64
	e := RandomUniform(n, 1000, rand.New(rand.NewSource(31)))
	var cg cellGrid
	cg.build(e, 1)
	if cells := len(cg.start) - 1; cells > 4*n {
		t.Fatalf("%d cells for %d points, want at most %d", cells, n, 4*n)
	}
	for u := range e {
		var cand []int32
		cx, cy := cg.coords(e[u])
		for y := max(cy-1, 0); y <= min(cy+1, cg.rows-1); y++ {
			for x := max(cx-1, 0); x <= min(cx+1, cg.cols-1); x++ {
				cand = append(cand, cg.tail(x, y, int32(u))...)
			}
		}
		for v := u + 1; v < n; v++ {
			// Every pair within one cell side must be a candidate.
			if e[u].Dist(e[v]) <= 1/cg.inv && !slices.Contains(cand, int32(v)) {
				t.Fatalf("pair (%d, %d) at distance %g missing from the candidates", u, v, e[u].Dist(e[v]))
			}
		}
	}
}
