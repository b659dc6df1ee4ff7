package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"amac/internal/graph"
)

// matchReference builds the grey-zone dual of e with GreyZoneDualInto and
// with the reference build, once on the all-pairs scan and once on the
// forced cell grid, and fails unless both graphs have the reference's CSR
// bytes (off and arcs) and the random stream stands at the reference's next
// draw. The builder writes into g, gp and s, so callers recycle them across
// calls. The reference's grid path cannot index an empty embedding, so for
// n = 0 it is held to the reference's scan alone.
func matchReference(t *testing.T, e Embedding, c, p float64, seed int64, s *Scratch, g, gp *graph.Graph) {
	t.Helper()
	old := cellGridMinNodes
	defer func() { cellGridMinNodes = old }()
	for _, path := range []struct {
		name string
		min  int
	}{{"scan", math.MaxInt}, {"cell grid", 0}} {
		cellGridMinNodes = path.min
		refRng := rand.New(rand.NewSource(seed))
		if len(e) == 0 {
			cellGridMinNodes = math.MaxInt
		}
		wantG, wantGP := refDual(e, c, p, refRng)
		cellGridMinNodes = path.min
		rng := rand.New(rand.NewSource(seed))
		e.GreyZoneDualInto(g, gp, c, p, rng, s)
		for _, pair := range []struct {
			name      string
			got, want *graph.Graph
		}{{"G", g, wantG}, {"G'", gp, wantGP}} {
			gotOff, gotArcs := pair.got.CSR()
			wantOff, wantArcs := pair.want.CSR()
			if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotArcs, wantArcs) {
				t.Fatalf("%s, n=%d c=%g p=%g: %s CSR differs from the reference (%d vs %d arcs)",
					path.name, len(e), c, p, pair.name, len(gotArcs), len(wantArcs))
			}
		}
		if got, want := rng.Int63(), refRng.Int63(); got != want {
			t.Fatalf("%s, n=%d c=%g p=%g: next draw %d, reference %d — the builds drew different variate counts",
				path.name, len(e), c, p, got, want)
		}
	}
}

// TestGreyZoneDualMatchesReference holds the one-scan dual builder to the
// two-scan build it replaced, on both candidate paths: small and edge-case
// embeddings, dense and sparse ones, lattices with pairs at exactly d = 1
// and d = c, c = 1 (no grey band), p = 0 and p = 1 (draws that never and
// always keep, and no draws at all), each built into fresh storage and into
// one scratch and pair of graphs recycled across every case.
func TestGreyZoneDualMatchesReference(t *testing.T) {
	line := func(pts ...Point) Embedding { return Embedding(pts) }
	cases := []struct {
		name string
		e    Embedding
		c, p float64
	}{
		{"n=0", Embedding{}, 1.6, 0.5},
		{"n=1", line(Point{}), 1.6, 0.5},
		{"n=2 reliable", line(Point{}, Point{X: 0.5}), 1.6, 0.5},
		{"n=2 grey", line(Point{}, Point{X: 1.3}), 1.6, 0.5},
		{"n=2 beyond c", line(Point{}, Point{X: 1.7}), 1.6, 0.5},
		{"dense", RandomUniform(200, 3, rand.New(rand.NewSource(1))), 1.6, 0.5},
		{"sparse wide square", RandomUniform(256, 100, rand.New(rand.NewSource(2))), 2, 0.5},
		{"rgg density", RandomUniform(300, 12, rand.New(rand.NewSource(3))), 1.6, 0.5},
		{"c=1", RandomUniform(150, 8, rand.New(rand.NewSource(4))), 1, 0.5},
		{"p=0", RandomUniform(150, 8, rand.New(rand.NewSource(5))), 2, 0},
		{"p=1", RandomUniform(150, 8, rand.New(rand.NewSource(6))), 2.5, 1},
		{"lattice c=sqrt2", GridPoints(12, 12, 1), math.Sqrt2, 0.5},
		{"lattice c=2", GridPoints(10, 14, 0.5), 2, 0.3},
		{"coincident points", line(Point{}, Point{}, Point{X: 1}, Point{X: 1}), 1.6, 0.5},
	}
	s, g, gp := new(Scratch), graph.New(0), graph.New(0)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(i); seed < int64(i)+200; seed += 100 {
				matchReference(t, tc.e, tc.c, tc.p, seed, nil, graph.New(0), graph.New(0))
				matchReference(t, tc.e, tc.c, tc.p, seed, s, g, gp)
			}
		})
	}
}

// maxFuzzPoints caps a fuzz input's point set, so the all-pairs reference
// stays fast.
const maxFuzzPoints = 96

// decodeDual reads a fuzz input as a grey-zone build: byte 0 picks c in
// [1, 5) in steps of 1/64, byte 1 picks p in [0, 1] (255 is exactly 1), and
// each following byte pair is one point on the 1/8 lattice of the [0, 32)
// square, at most maxFuzzPoints of them. Lattice points put pairs at exactly
// d = 1 and often at d = c.
func decodeDual(data []byte) (e Embedding, c, p float64) {
	c, p = 1.6, 0.5
	if len(data) > 0 {
		c = 1 + float64(data[0])/64
	}
	if len(data) > 1 {
		p = float64(data[1]) / 255
	}
	for i := 2; i+1 < len(data) && len(e) < maxFuzzPoints; i += 2 {
		e = append(e, Point{X: float64(data[i]) / 8, Y: float64(data[i+1]) / 8})
	}
	return e, c, p
}

// FuzzGreyZoneDualMatchesReference is TestGreyZoneDualMatchesReference on
// generated point sets, c and p.
func FuzzGreyZoneDualMatchesReference(f *testing.F) {
	s, g, gp := new(Scratch), graph.New(0), graph.New(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, c, p := decodeDual(data)
		matchReference(t, e, c, p, int64(len(data)), s, g, gp)
	})
}
