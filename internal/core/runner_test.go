package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/topology"
)

// snapshot renders one execution's observable outcome — scalar results plus
// the full trace text — for byte-for-byte comparison.
func snapshot(res *core.Result) string {
	return fmt.Sprintf("solved=%v t=%d end=%d delivered=%d required=%d bcasts=%d steps=%d ok=%v\n%s",
		res.Solved, res.CompletionTime, res.End, res.Delivered, res.Required,
		res.Broadcasts, res.Steps, res.Report.OK(), res.Trace.String())
}

// TestRunnerWarmMatchesCold replays the same seeds through fresh core.Run
// calls and through one warm Runner (arena, pooled engine, reused fleet),
// comparing the full execution snapshot — trace text included — byte for
// byte. This is the core-level half of the "byte-identical with arena reuse
// on and off" guarantee; the scenario golden-trace suite pins the other
// half end to end.
func TestRunnerWarmMatchesCold(t *testing.T) {
	d := topology.LineRRestricted(16, 2, 0.7, rand.New(rand.NewSource(9)))
	assignment := core.SingleSource(16, 0, 3)
	seeds := []int64{1, 2, 3, 4}

	cold := make([]string, len(seeds))
	for i, seed := range seeds {
		res, err := core.Run(core.RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Sync{Rel: sched.Bernoulli{P: 0.5}},
			Seed:             seed,
			Assignment:       assignment,
			Automata:         core.NewBMMBFleet(16),
			HaltOnCompletion: true,
			Options:          core.RunOptions{Check: true},
		})
		if err != nil {
			t.Fatalf("cold run seed %d: %v", seed, err)
		}
		if !res.Solved {
			t.Fatalf("cold run seed %d unsolved", seed)
		}
		cold[i] = snapshot(res)
	}

	rn := core.NewRunner(d)
	fleet := core.NewBMMBFleet(16)
	for i, seed := range seeds {
		for _, a := range fleet {
			a.(interface{ Reset() }).Reset()
		}
		res, err := rn.Run(core.RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Sync{Rel: sched.Bernoulli{P: 0.5}},
			Seed:             seed,
			Assignment:       assignment,
			Automata:         fleet,
			HaltOnCompletion: true,
			Options:          core.RunOptions{Check: true},
		})
		if err != nil {
			t.Fatalf("warm run seed %d: %v", seed, err)
		}
		// Snapshot before the next Run recycles the pooled engine.
		if got := snapshot(res); got != cold[i] {
			t.Fatalf("warm run seed %d diverged from cold run:\nwarm:\n%.300s\ncold:\n%.300s",
				seed, got, cold[i])
		}
	}
}

// TestRunnerRejectsForeignDual pins the pointer-identity contract: a Runner
// only runs configurations on the exact network it was built for.
func TestRunnerRejectsForeignDual(t *testing.T) {
	rn := core.NewRunner(topology.Line(8))
	other := topology.Line(8)
	_, err := rn.Run(core.RunConfig{
		Dual:       other,
		Fack:       200,
		Fprog:      10,
		Scheduler:  &sched.Sync{},
		Seed:       1,
		Assignment: core.SingleSource(8, 0, 1),
		Automata:   core.NewBMMBFleet(8),
	})
	if err == nil {
		t.Fatal("Runner accepted a structurally equal but distinct dual")
	}
}

// TestRunnerRebindMatchesCold replays a sequence of different networks —
// sizes, G′ shapes, and a return to an earlier network — through one
// rebound Runner and through fresh core.Run calls, comparing full execution
// snapshots byte for byte. This is the core-level half of the unpinned
// warm-path guarantee; scenario.TestWarmTrialMatchesFresh pins the other
// half end to end.
func TestRunnerRebindMatchesCold(t *testing.T) {
	duals := []*topology.Dual{
		topology.LineRRestricted(16, 2, 0.7, rand.New(rand.NewSource(9))),
		topology.Line(24),
		topology.LineRRestricted(10, 3, 0.5, rand.New(rand.NewSource(4))),
		topology.Line(24),
	}
	cfgFor := func(d *topology.Dual, seed int64, fleet []mac.Automaton) core.RunConfig {
		return core.RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Sync{Rel: sched.Bernoulli{P: 0.5}},
			Seed:             seed,
			Assignment:       core.SingleSource(d.N(), 0, 2),
			Automata:         fleet,
			HaltOnCompletion: true,
			Options:          core.RunOptions{Check: true},
		}
	}

	var rn *core.Runner
	for i, d := range duals {
		seed := int64(i + 1)
		cold, err := core.Run(cfgFor(d, seed, core.NewBMMBFleet(d.N())))
		if err != nil {
			t.Fatalf("cold run %d: %v", i, err)
		}
		want := snapshot(cold)

		if rn == nil {
			rn = core.NewRunner(d)
		} else {
			rn.Rebind(d)
		}
		warm, err := rn.Run(cfgFor(d, seed, core.NewBMMBFleet(d.N())))
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		if got := snapshot(warm); got != want {
			t.Fatalf("rebound run %d (%s) diverged from cold run:\nwarm:\n%.300s\ncold:\n%.300s",
				i, d.Name, got, want)
		}
	}
}

// TestRunnerSerialShardedInterleave pins slot sharing: single-engine runs
// and sharded worker 0 both run on slot 0, so alternating the two executors
// on one Runner — and rebinding it to another multi-component network,
// which rebinds every slot — must leave every execution byte-identical to a
// fresh core.Run of the same configuration.
func TestRunnerSerialShardedInterleave(t *testing.T) {
	cfgFor := func(d *topology.Dual, per, shards int, seed int64) core.RunConfig {
		var origins []graph.NodeID
		for v := 0; v < d.N(); v += per {
			origins = append(origins, graph.NodeID(v))
		}
		cfg := core.RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        newSync(),
			Seed:             seed,
			Assignment:       core.Singleton(d.N(), origins),
			Automata:         core.NewBMMBFleet(d.N()),
			HaltOnCompletion: true,
			Options:          core.RunOptions{Check: true, Shards: shards},
		}
		if shards >= 1 {
			cfg.NewScheduler = newSync
		}
		return cfg
	}
	first, second := disjointLines(3, 8), disjointLines(4, 6)
	steps := []struct {
		d           *topology.Dual
		per, shards int
	}{
		{first, 8, 0},
		{first, 8, 2},
		{first, 8, 0},
		{second, 6, 2},
		{second, 6, 0},
	}
	rn := core.NewRunner(first)
	for i, st := range steps {
		seed := int64(i + 1)
		cold, err := core.Run(cfgFor(st.d, st.per, st.shards, seed))
		if err != nil {
			t.Fatalf("step %d: cold run: %v", i, err)
		}
		want := snapshot(cold)
		rn.Rebind(st.d)
		warm, err := rn.Run(cfgFor(st.d, st.per, st.shards, seed))
		if err != nil {
			t.Fatalf("step %d: warm run: %v", i, err)
		}
		if got := snapshot(warm); got != want {
			t.Fatalf("step %d (%s, shards=%d) diverged from a fresh run:\nwarm:\n%.300s\ncold:\n%.300s",
				i, st.d.Name, st.shards, got, want)
		}
		if !warm.Solved || !warm.Report.OK() {
			t.Fatalf("step %d: unsolved or non-compliant run", i)
		}
	}
}
