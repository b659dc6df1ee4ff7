package topology

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// dualFingerprint renders everything observable about a built network.
func dualFingerprint(b *Built) string {
	d := b.Dual
	return fmt.Sprintf("%s n=%d G=%v G'=%v embed=%v reliable=%x",
		d.Name, d.N(), d.G.Edges(), d.GPrime.Edges(), d.Embed, d.ReliableArcs())
}

// sharesG lists the G′ = G families, whose G′ is G itself.
var sharesG = map[string]bool{"line": true, "ring": true, "star": true, "tree": true, "grid": true, "star-choke": true}

// buildCases maps every registered family to small parameters for the
// structure-sharing tests.
var buildCases = map[string]Params{
	"line":           {"n": 9},
	"ring":           {"n": 8},
	"star":           {"n": 7},
	"tree":           {"n": 10},
	"grid":           {"rows": 3, "cols": 4},
	"rgg":            {"n": 14, "side": 2.4, "c": 1.6, "p": 0.5},
	"rline":          {"n": 12, "r": 2, "p": 0.6},
	"pods":           {"n": 18, "k": 3, "r": 2, "p": 0.6},
	"noisy-line":     {"n": 12, "extra": 6},
	"grid-crosstalk": {"rows": 3, "cols": 4, "r": 2, "p": 0.5},
	"parallel-lines": {"d": 5},
	"star-choke":     {"k": 4},
}

// TestBuildIntoMatchesBuild is the structure-sharing contract: for every
// registered family and several seeds, building into one shared workspace
// yields networks byte-identical to fresh Build calls, reliability words
// included — interleaved across families, so recycled graphs and words
// from one family cannot leak into the next. Both builds' words must equal
// G.HasEdge on every G′ arc, and exactly the G′ = G families share G.
func TestBuildIntoMatchesBuild(t *testing.T) {
	ws := NewWorkspace()
	for _, name := range Names() {
		p, ok := buildCases[name]
		if !ok {
			t.Fatalf("no build case for registered family %q — extend buildCases", name)
		}
		for seed := int64(1); seed <= 4; seed++ {
			cold, err := BuildSeeded(name, p, seed)
			if err != nil {
				t.Fatalf("%s seed %d: cold: %v", name, seed, err)
			}
			want := dualFingerprint(cold)
			warm, err := BuildInto(name, p, seed, ws)
			if err != nil {
				t.Fatalf("%s seed %d: warm: %v", name, seed, err)
			}
			if got := dualFingerprint(warm); got != want {
				t.Fatalf("%s seed %d: BuildInto diverged from Build:\nwarm: %s\ncold: %s", name, seed, got, want)
			}
			if err := warm.Dual.Validate(); err != nil {
				t.Fatalf("%s seed %d: workspace-built dual invalid: %v", name, seed, err)
			}
			for _, b := range []*Built{cold, warm} {
				if msg := bitsMismatch(b.Dual); msg != "" {
					t.Fatalf("%s seed %d: %s", name, seed, msg)
				}
				if shared := b.Dual.GPrime == b.Dual.G; shared != sharesG[name] {
					t.Fatalf("%s seed %d: G′ is G itself: %v, want %v", name, seed, shared, sharesG[name])
				}
			}
		}
	}
}

// TestBuildIntoReusesStorage pins the point of the workspace: repeated
// builds of one randomized family recycle the graph pool (same *Graph
// handed back) and allocate well under a cold build.
func TestBuildIntoReusesStorage(t *testing.T) {
	p := Params{"n": 24, "r": 2, "p": 0.6}
	ws := NewWorkspace()
	first, err := BuildInto("rline", p, 1, ws)
	if err != nil {
		t.Fatal(err)
	}
	second, err := BuildInto("rline", p, 2, ws)
	if err != nil {
		t.Fatal(err)
	}
	if first.Dual.G != second.Dual.G || first.Dual.GPrime != second.Dual.GPrime {
		t.Fatal("workspace did not recycle the graph pool across builds")
	}

	warm := testing.AllocsPerRun(20, func() {
		if _, err := BuildInto("rline", p, 3, ws); err != nil {
			t.Fatal(err)
		}
	})
	cold := testing.AllocsPerRun(20, func() {
		if _, err := BuildSeeded("rline", p, 3); err != nil {
			t.Fatal(err)
		}
	})
	if warm >= cold/2 {
		t.Fatalf("workspace build allocates %.0f times vs %.0f cold — structure sharing is not amortizing construction", warm, cold)
	}
}

// TestDeterministicFlags pins which families declare seed-independence: the
// flag is what lets scenario.Run treat every trial of a ring sweep as one
// pinned instance instead of rebuilding an identical network per trial.
func TestDeterministicFlags(t *testing.T) {
	want := map[string]bool{
		"line": true, "ring": true, "star": true, "tree": true, "grid": true,
		"parallel-lines": true, "star-choke": true,
		"rgg": false, "rline": false, "noisy-line": false, "grid-crosstalk": false,
		"pods": false,
	}
	for _, name := range Names() {
		w, ok := want[name]
		if !ok {
			t.Fatalf("no determinism expectation for registered family %q — extend this test", name)
		}
		if Deterministic(name) != w {
			t.Errorf("Deterministic(%q) = %v, want %v", name, Deterministic(name), w)
		}
	}
	if Deterministic("no-such-family") {
		t.Error("unknown family reported deterministic")
	}
}

// TestBuildSeededExactLargeSeeds is the regression test for the lossy
// seed plumbing: seeds above 2^53 are not exactly representable as float64,
// so threading them through the parameter map collapsed adjacent seeds onto
// one network. BuildSeeded must keep them distinct.
func TestBuildSeededExactLargeSeeds(t *testing.T) {
	p := Params{"n": 16, "side": 2.6, "c": 1.6, "p": 0.5}
	const big = int64(1) << 53 // float64(big) == float64(big+1)
	a, err := BuildSeeded("rgg", p, big)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSeeded("rgg", p, big+1)
	if err != nil {
		t.Fatal(err)
	}
	if dualFingerprint(a) == dualFingerprint(b) {
		t.Fatalf("seeds %d and %d built the same network — the seed is being rounded through a float64", big, big+1)
	}
}

// TestBuildSeededParamPrecedence pins that an explicit "seed" parameter
// still wins over the threaded seed, matching Build's behavior.
func TestBuildSeededParamPrecedence(t *testing.T) {
	p := Params{"n": 12, "r": 2, "p": 0.6, "seed": 5}
	pinned, err := Build("rline", p)
	if err != nil {
		t.Fatal(err)
	}
	threaded, err := BuildSeeded("rline", p, 99)
	if err != nil {
		t.Fatal(err)
	}
	if dualFingerprint(pinned) != dualFingerprint(threaded) {
		t.Fatal("explicit seed parameter did not take precedence over the threaded seed")
	}
}

// TestParamsRoundToNearest pins the Int/Int64 boundary behavior: JSON
// round-tripped near-integers round to the intended value instead of
// truncating a node away.
func TestParamsRoundToNearest(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{100, 100},
		{99.99999999999999, 100},
		{100.00000000000001, 100},
		{2.4, 2},
		{2.5, 3},
		{-2.5, -3},
		{-2.4, -2},
		{0, 0},
	}
	for _, tc := range cases {
		p := Params{"n": tc.v}
		if got := p.Int("n", -1); got != tc.want {
			t.Errorf("Int(%v) = %d, want %d", tc.v, got, tc.want)
		}
		if got := p.Int64("n", -1); got != int64(tc.want) {
			t.Errorf("Int64(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if got := (Params{}).Int("n", 7); got != 7 {
		t.Errorf("absent Int default = %d, want 7", got)
	}
	if got := (Params{}).Int64("n", 7); got != 7 {
		t.Errorf("absent Int64 default = %d, want 7", got)
	}
}

// TestBuildRejectsRGGBelowUnitGreyZone pins that an rgg with c < 1 is a
// build error, not a panic: the grey zone constraint needs c ≥ 1, and a job
// spec carrying such a value must fail cleanly instead of taking the
// process down.
func TestBuildRejectsRGGBelowUnitGreyZone(t *testing.T) {
	for _, c := range []float64{0.5, 0, -1} {
		b, err := Build("rgg", Params{"n": 50, "c": c})
		if err == nil || b != nil {
			t.Fatalf("c=%g: Build = (%v, %v), want an error", c, b, err)
		}
		if want := "rgg needs c >= 1"; !strings.Contains(err.Error(), want) {
			t.Fatalf("c=%g: error %q does not mention %q", c, err, want)
		}
	}
	if _, err := Build("rgg", Params{"n": 50, "c": 1}); err != nil {
		t.Fatalf("c=1 is the smallest legal grey zone constant: %v", err)
	}
}

// TestBuildRejectsRGGNonFiniteGeometry pins that a non-finite grey zone
// constant or square side is a descriptive build error. Unchecked, c = NaN
// passes the c < 1 test and the cell grid, sized by a NaN cell side, drops
// every candidate pair, so G′ misses G's edges; c = +Inf puts every node in
// one cell; and a non-finite side only fails after max-tries full builds.
// The cell-grid size (n ≥ 2048) is where the NaN grid went wrong.
func TestBuildRejectsRGGNonFiniteGeometry(t *testing.T) {
	for _, tc := range []struct {
		p    Params
		want string
	}{
		{Params{"n": 3000, "c": math.NaN()}, "rgg needs a finite c, got NaN"},
		{Params{"n": 300, "c": math.NaN()}, "rgg needs a finite c, got NaN"},
		{Params{"n": 300, "c": math.Inf(1)}, "rgg needs a finite c, got +Inf"},
		{Params{"n": 300, "side": math.NaN()}, "rgg needs a finite side, got NaN"},
		{Params{"n": 300, "side": math.Inf(1)}, "rgg needs a finite side, got +Inf"},
		{Params{"n": 300, "side": math.Inf(-1)}, "rgg needs a finite side, got -Inf"},
	} {
		b, err := Build("rgg", tc.p)
		if err == nil || b != nil {
			t.Fatalf("%v: Build = (%v, %v), want an error", tc.p, b, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: error %q does not mention %q", tc.p, err, tc.want)
		}
	}
}
