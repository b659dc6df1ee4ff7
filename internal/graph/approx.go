package graph

import (
	"math/rand"
	"runtime"
	"slices"

	"amac/internal/par"
)

// ExactDiameterCutoff is the node count up to which ApproxDiameter computes
// the exact all-source diameter. Exact diameter is O(n·m); past this size
// the sampled double-sweep estimate below is used instead. Every experiment
// shipped before the large-n family sits well under the cutoff, so their
// horizons and tables are unchanged by the approximate path existing.
const ExactDiameterCutoff = 2048

// SampledDiameter is the diameter estimate every run and report shares,
// ApproxDiameter(8, 1): the default horizon, FMMB's default D, the large-n
// tables and amacsim's header all read it, so they agree and a large
// network pays for its sweeps once (the memo holds one (k, seed) pair).
func (g *Graph) SampledDiameter() int { return g.ApproxDiameter(8, 1) }

// ApproxDiameter estimates the diameter with k seeded double sweeps: each
// round BFSes from a pseudo-random source, then from the farthest node that
// sweep reaches (whose eccentricity is a strong diameter lower bound on
// sparse geometric and mesh-like graphs — the large-n families this path
// exists for). The returned value is the maximum eccentricity observed, so
// it never exceeds the true diameter. Graphs with at most
// ExactDiameterCutoff nodes take the exact path, making the two observably
// identical at the sizes the golden suites pin. Source selection is
// deterministic in seed; the k double sweeps run on up to GOMAXPROCS
// workers and the result does not depend on their number. Results are
// memoized per (k, seed) under the same lock as Diameter, so shared graphs
// may call it concurrently.
func (g *Graph) ApproxDiameter(k int, seed int64) int {
	if g.n <= ExactDiameterCutoff {
		return g.Diameter()
	}
	if k < 1 {
		k = 1
	}
	g.diamMu.Lock()
	defer g.diamMu.Unlock()
	if g.diamOK {
		// The exact value is already known — strictly better than a sample.
		return g.diam
	}
	if g.adiamOK && g.adiamK == k && g.adiamSeed == seed {
		return g.adiam
	}
	// Draw every source first, in the sequence a serial loop would, then
	// run the sweeps concurrently: each owns a pooled scratch and the
	// reduction is a max, so the result is independent of the schedule.
	rng := rand.New(rand.NewSource(seed))
	srcs := make([]NodeID, k)
	for i := range srcs {
		srcs[i] = NodeID(rng.Intn(g.n))
	}
	ecc := make([]int, k)
	par.For(runtime.GOMAXPROCS(0), k, func(i int) {
		ecc[i] = g.doubleSweep(srcs[i])
	})
	best := slices.Max(ecc)
	g.adiam, g.adiamOK, g.adiamK, g.adiamSeed = best, true, k, seed
	return best
}

// doubleSweep BFSes from src, then returns the eccentricity of the farthest
// node that walk reaches.
func (g *Graph) doubleSweep(src NodeID) int {
	s := getScratch(g.n)
	resetDist(s.dist)
	s.queue = g.bfsInto(src, s.dist, s.queue)
	far, fd := src, 0
	for _, v := range s.queue {
		if d := s.dist[v]; d > fd {
			far, fd = v, d
		}
	}
	putScratch(s)
	return g.Eccentricity(far)
}
