package graph

import "math/rand"

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
// deterministic in seed, and results are memoized per (k, seed) under the
// same lock as Diameter, so shared graphs may call it concurrently.
func (g *Graph) ApproxDiameter(k int, seed int64) int {
	g.finalize()
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
	rng := rand.New(rand.NewSource(seed))
	s := getScratch(g.n)
	resetDist(s.dist)
	best := 0
	for i := 0; i < k; i++ {
		src := NodeID(rng.Intn(g.n))
		// Sweep 1: find the node farthest from the sampled source.
		s.queue = g.bfsInto(src, s.dist, s.queue)
		far, fd := src, 0
		for _, v := range s.queue {
			if d := s.dist[v]; d > fd {
				far, fd = v, d
			}
			s.dist[v] = Unreachable // restore for the next sweep
		}
		// Sweep 2: that node's eccentricity lower-bounds the diameter.
		s.queue = g.bfsInto(far, s.dist, s.queue)
		for _, v := range s.queue {
			if d := s.dist[v]; d > best {
				best = d
			}
			s.dist[v] = Unreachable
		}
	}
	putScratch(s)
	g.adiam, g.adiamOK, g.adiamK, g.adiamSeed = best, true, k, seed
	return best
}
