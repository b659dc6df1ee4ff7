package topology

import (
	"fmt"
	"math"
	"sort"

	"amac/internal/geom"
)

// Params carries the named numeric parameters of a registry-built artifact.
// All values are float64 so parameter sets round-trip through JSON without a
// schema; integral parameters are read with Int, which rounds to the nearest
// integer so float noise from a JSON round trip (99.99999999999999 for 100)
// cannot shift a parameter. Missing keys select the builder's documented
// default.
type Params map[string]float64

// Has reports whether the parameter is present.
func (p Params) Has(name string) bool { _, ok := p[name]; return ok }

// Float returns the parameter, or def when absent.
func (p Params) Float(name string, def float64) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// Int returns the parameter rounded to the nearest int (halves away from
// zero, like math.Round), or def when absent. Truncation would silently
// drop a node from near-integer values that JSON round trips and float
// arithmetic routinely produce.
func (p Params) Int(name string, def int) int {
	if v, ok := p[name]; ok {
		return int(math.Round(v))
	}
	return def
}

// Int64 returns the parameter rounded to the nearest int64 (see Int), or def
// when absent.
func (p Params) Int64(name string, def int64) int64 {
	if v, ok := p[name]; ok {
		return int64(math.Round(v))
	}
	return def
}

// Unknown returns the lexicographically first parameter name accepts
// rejects, and whether there is one: the unknown-parameter check of every
// registry's spec validation. The least key is named, not whichever a map
// range meets first, so the report is the same on every run — validation
// errors end up in job records and test expectations.
func (p Params) Unknown(accepts func(name string) bool) (string, bool) {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !accepts(k) {
			return k, true
		}
	}
	return "", false
}

// Clone returns a copy of the parameter set (nil-safe).
func (p Params) Clone() Params {
	out := make(Params, len(p)+1)
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Built is the product of a registered topology builder: the dual network
// plus, for the structured lower-bound constructions, the generator-specific
// artifact (e.g. *ParallelLinesC or *StarChoke) that downstream consumers —
// canonical workloads, the adversarial scheduler — key off.
type Built struct {
	Dual *Dual
	// Artifact optionally exposes the construction behind the dual.
	Artifact any
}

// Builder constructs a network family member from its parameters, the
// family's random-stream seed, and optional workspace scratch. Builders
// must be deterministic — equal (parameters, seed) yield equal networks —
// and must produce byte-identical networks with and without a workspace:
// the workspace only changes where the memory comes from. The seed arrives
// as an exact int64 (never through a float64 parameter, which is lossy
// above 2^53); deterministic families ignore it. ws may be nil (allocate
// fresh); the Workspace surface is nil-receiver safe, so builders are
// written once against it.
type Builder func(p Params, seed int64, ws *Workspace) (*Built, error)

type registration struct {
	params        map[string]bool
	builder       Builder
	deterministic bool
}

var registry = map[string]registration{}

// Register adds a named randomized topology family to the registry,
// declaring the parameter names it accepts; Build rejects parameters
// outside that set. Every family implicitly accepts "seed" (deterministic
// families ignore it), so callers can thread per-trial seeds uniformly.
// Register panics on duplicate names (a wiring bug, caught at init).
func Register(name string, params []string, b Builder) {
	register(name, params, b, false)
}

// RegisterDeterministic is Register for families whose builder ignores the
// seed: equal parameter sets alone yield equal networks. Consumers use
// Deterministic to treat every trial of such a family as the same pinned
// instance (scenario.Run builds it once and reuses the warm run arena)
// instead of rebuilding an identical network per trial.
func RegisterDeterministic(name string, params []string, b Builder) {
	register(name, params, b, true)
}

func register(name string, params []string, b Builder, deterministic bool) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("topology: duplicate registration of %q", name))
	}
	ps := make(map[string]bool, len(params)+1)
	for _, p := range params {
		ps[p] = true
	}
	ps["seed"] = true
	registry[name] = registration{params: ps, builder: b, deterministic: deterministic}
}

// Deterministic reports whether the named family was registered as
// seed-independent (false for unknown names).
func Deterministic(name string) bool {
	return registry[name].deterministic
}

// Names returns the registered topology names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ValidateSpec checks that name is registered and every parameter is one the
// family accepts, without building anything.
func ValidateSpec(name string, p Params) error {
	reg, ok := registry[name]
	if !ok {
		return fmt.Errorf("topology: unknown topology %q (registered: %v)", name, Names())
	}
	if k, ok := p.Unknown(func(k string) bool { return reg.params[k] }); ok {
		return fmt.Errorf("topology: %q does not accept parameter %q (accepted: %v)",
			name, k, sortedKeys(reg.params))
	}
	return nil
}

// Build constructs the named topology from its parameters, validating the
// parameter names first. The random stream of a randomized family is seeded
// from the "seed" parameter (default 1); to thread a seed that a float64
// cannot represent exactly, use BuildSeeded.
func Build(name string, p Params) (*Built, error) {
	return BuildInto(name, p, p.Int64("seed", 1), nil)
}

// BuildSeeded is Build with the family seed threaded as an exact int64
// instead of through the float64 parameter map, which is lossy above 2^53
// and would silently collide distinct large seeds onto the same network. An
// explicit "seed" parameter still wins, matching Build's precedence.
func BuildSeeded(name string, p Params, seed int64) (*Built, error) {
	return BuildInto(name, p, seed, nil)
}

// BuildInto is BuildSeeded emitting into ws scratch (see Workspace): graphs,
// embeddings and build scratch of the previous build on the same workspace
// are recycled, so per-trial topology draws of a sweep stop paying
// construction allocations. A nil ws allocates fresh; the built network is
// byte-identical either way. Every graph of the network is finished when
// BuildInto returns, so parallel trial workers may read it at once.
func BuildInto(name string, p Params, seed int64, ws *Workspace) (*Built, error) {
	if err := ValidateSpec(name, p); err != nil {
		return nil, err
	}
	if p.Has("seed") {
		seed = p.Int64("seed", 1)
	}
	ws.begin()
	return registry[name].builder(p, seed, ws)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// gridDims resolves the shared grid sizing parameters: explicit rows/cols,
// or the largest square that fits in "n" (amacsim's historical heuristic).
func gridDims(p Params) (rows, cols int, err error) {
	rows, cols = p.Int("rows", 0), p.Int("cols", 0)
	if rows == 0 && cols == 0 {
		n := p.Int("n", 32)
		if n < 1 {
			return 0, 0, fmt.Errorf("topology: grid needs n >= 1, got %d", n)
		}
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		rows, cols = side, side
	}
	if cols == 0 {
		cols = rows
	}
	if rows < 1 || cols < 1 {
		return 0, 0, fmt.Errorf("topology: grid needs rows, cols >= 1, got %dx%d", rows, cols)
	}
	return rows, cols, nil
}

func init() {
	RegisterDeterministic("line", []string{"n"}, func(p Params, _ int64, _ *Workspace) (*Built, error) {
		n := p.Int("n", 32)
		if n < 1 {
			return nil, fmt.Errorf("topology: line needs n >= 1, got %d", n)
		}
		return &Built{Dual: Line(n)}, nil
	})
	RegisterDeterministic("ring", []string{"n"}, func(p Params, _ int64, _ *Workspace) (*Built, error) {
		n := p.Int("n", 32)
		if n < 3 {
			return nil, fmt.Errorf("topology: ring needs n >= 3, got %d", n)
		}
		return &Built{Dual: Ring(n)}, nil
	})
	RegisterDeterministic("star", []string{"n"}, func(p Params, _ int64, _ *Workspace) (*Built, error) {
		n := p.Int("n", 32)
		if n < 2 {
			return nil, fmt.Errorf("topology: star needs n >= 2, got %d", n)
		}
		return &Built{Dual: Star(n)}, nil
	})
	RegisterDeterministic("tree", []string{"n"}, func(p Params, _ int64, _ *Workspace) (*Built, error) {
		n := p.Int("n", 32)
		if n < 1 {
			return nil, fmt.Errorf("topology: tree needs n >= 1, got %d", n)
		}
		return &Built{Dual: CompleteBinaryTree(n)}, nil
	})
	RegisterDeterministic("grid", []string{"rows", "cols", "n"}, func(p Params, _ int64, _ *Workspace) (*Built, error) {
		rows, cols, err := gridDims(p)
		if err != nil {
			return nil, err
		}
		return &Built{Dual: Grid(rows, cols)}, nil
	})
	Register("rgg", []string{"n", "side", "c", "p", "seed", "max-tries"}, func(p Params, seed int64, ws *Workspace) (*Built, error) {
		n := p.Int("n", 32)
		if n < 1 {
			return nil, fmt.Errorf("topology: rgg needs n >= 1, got %d", n)
		}
		side := p.Float("side", 0)
		if side == 0 {
			side = DefaultRGGSide(n)
		}
		c := p.Float("c", 1.6)
		switch {
		case math.IsNaN(side) || math.IsInf(side, 0):
			return nil, fmt.Errorf("topology: rgg needs a finite side, got %g", side)
		case math.IsNaN(c) || math.IsInf(c, 0):
			return nil, fmt.Errorf("topology: rgg needs a finite c, got %g", c)
		case c < 1:
			return nil, fmt.Errorf("topology: rgg needs c >= 1, got %g", c)
		}
		prob := p.Float("p", 0.5)
		tries := p.Int("max-tries", 200)
		d := ConnectedRandomGeometricInto(ws, n, side, c, prob, ws.Rand(seed), tries)
		if d == nil {
			return nil, fmt.Errorf("topology: no connected rgg instance for n=%d side=%.2f in %d tries (density too low)",
				n, side, tries)
		}
		return &Built{Dual: d}, nil
	})
	Register("rline", []string{"n", "r", "p", "seed"}, func(p Params, seed int64, ws *Workspace) (*Built, error) {
		n, r := p.Int("n", 32), p.Int("r", 2)
		if n < 1 || r < 1 {
			return nil, fmt.Errorf("topology: rline needs n, r >= 1, got n=%d r=%d", n, r)
		}
		return &Built{Dual: LineRRestrictedInto(ws, n, r, p.Float("p", 0.6), ws.Rand(seed))}, nil
	})
	Register("pods", []string{"n", "k", "r", "p", "seed"}, func(p Params, seed int64, ws *Workspace) (*Built, error) {
		n, k, r := p.Int("n", 64), p.Int("k", 4), p.Int("r", 2)
		if n < 1 || k < 1 || k > n || r < 1 {
			return nil, fmt.Errorf("topology: pods needs n >= 1, 1 <= k <= n, r >= 1, got n=%d k=%d r=%d", n, k, r)
		}
		return &Built{Dual: PodsRRestrictedInto(ws, n, k, r, p.Float("p", 0.6), ws.Rand(seed))}, nil
	})
	Register("noisy-line", []string{"n", "extra", "seed"}, func(p Params, seed int64, ws *Workspace) (*Built, error) {
		n := p.Int("n", 32)
		if n < 1 {
			return nil, fmt.Errorf("topology: noisy-line needs n >= 1, got %d", n)
		}
		extra := p.Int("extra", n)
		return &Built{Dual: ArbitraryNoiseInto(ws, linesInto(ws, n, 1), extra, ws.Rand(seed),
			fmt.Sprintf("line+%d-wild-edges", extra))}, nil
	})
	Register("grid-crosstalk", []string{"rows", "cols", "n", "r", "p", "seed"}, func(p Params, seed int64, ws *Workspace) (*Built, error) {
		rows, cols, err := gridDims(p)
		if err != nil {
			return nil, err
		}
		r := p.Int("r", 2)
		if r < 1 {
			return nil, fmt.Errorf("topology: grid-crosstalk needs r >= 1, got %d", r)
		}
		e := geom.GridPoints(rows, cols, 1.0)
		base := e.UnitDiskInto(ws.Graph(rows*cols), 1.0, ws.Scratch())
		d := RRestrictedInto(ws, base, r, p.Float("p", 0.5), ws.Rand(seed),
			fmt.Sprintf("grid-crosstalk(%dx%d,r=%d)", rows, cols, r))
		d.Embed = e
		return &Built{Dual: d}, nil
	})
	RegisterDeterministic("parallel-lines", []string{"d", "n"}, func(p Params, _ int64, ws *Workspace) (*Built, error) {
		d := p.Int("d", 0)
		if d == 0 {
			d = p.Int("n", 16) / 2
		}
		if d < 2 {
			return nil, fmt.Errorf("topology: parallel-lines needs line length d >= 2, got %d", d)
		}
		c := NewParallelLinesCInto(ws, d)
		return &Built{Dual: c.Dual, Artifact: c}, nil
	})
	RegisterDeterministic("star-choke", []string{"k"}, func(p Params, _ int64, _ *Workspace) (*Built, error) {
		k := p.Int("k", 2)
		if k < 2 {
			return nil, fmt.Errorf("topology: star-choke needs k >= 2, got %d", k)
		}
		s := NewStarChoke(k)
		return &Built{Dual: s.Dual, Artifact: s}, nil
	})
}

// DefaultRGGSide is the square-side heuristic amacsim has always used for
// connected random geometric networks: roomy enough to be interesting,
// dense enough that connected instances exist.
func DefaultRGGSide(n int) float64 {
	l := log2i(n)
	side := 0.72 * float64(n) / float64(l*l+1)
	if side < 2 {
		side = 2
	}
	return side
}

// log2i returns ⌈log₂ n⌉ with a floor of 1.
func log2i(n int) int {
	l, v := 0, 1
	for v < n {
		v <<= 1
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}
