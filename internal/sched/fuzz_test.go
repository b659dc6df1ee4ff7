package sched_test

import (
	"math/rand"
	"testing"

	"amac/internal/check"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// fuzzNode is a randomized automaton: at wakeup and after each ack it
// decides randomly whether to broadcast again, and on receive it sometimes
// queues an extra broadcast. It produces irregular traffic patterns that
// the shipped schedulers must survive while honoring every model
// guarantee.
type fuzzNode struct {
	budget  int
	pending bool
	wantOne bool
}

func (f *fuzzNode) maybeSend(ctx mac.Context) {
	if f.budget <= 0 || ctx.Pending() {
		return
	}
	if f.wantOne || ctx.Rand().Float64() < 0.6 {
		f.wantOne = false
		f.budget--
		ctx.Bcast(sim.Payload{Kind: sim.PayloadInt, A: int64(ctx.ID()), B: ctx.Rand().Int63()})
	}
}

func (f *fuzzNode) Wakeup(ctx mac.Context) { f.maybeSend(ctx) }
func (f *fuzzNode) Recv(ctx mac.Context, _ mac.Message) {
	if ctx.Rand().Float64() < 0.3 {
		f.wantOne = true
	}
	f.maybeSend(ctx)
}
func (f *fuzzNode) Acked(ctx mac.Context, _ mac.Message) { f.maybeSend(ctx) }

// TestSchedulerFuzz runs randomized traffic through every general-purpose
// scheduler on randomized dual graphs across many seeds, model-checking
// each execution. This is the repository's failure-injection net: any
// scheduler timing bug (missed deadline, double delivery, starved
// receiver) surfaces as a checker violation.
func TestSchedulerFuzz(t *testing.T) {
	builders := []func() mac.Scheduler{
		func() mac.Scheduler { return &sched.Sync{} },
		func() mac.Scheduler { return &sched.Sync{Rel: sched.Bernoulli{P: 0.5}, GreyDelay: 1} },
		func() mac.Scheduler { return &sched.Random{Rel: sched.Bernoulli{P: 0.5}} },
		func() mac.Scheduler { return &sched.Contention{Rel: sched.Bernoulli{P: 0.5}} },
		func() mac.Scheduler { return &sched.Contention{Rel: &sched.Flaky{MeanUp: 30, MeanDown: 30}} },
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Random connected base graph: a line plus random chords, with a
		// random r-restricted G'.
		n := 5 + rng.Intn(15)
		base := lineWithChords(rng, n)
		r := 1 + rng.Intn(4)
		d := topology.RRestricted(base, r, rng.Float64(), rng, "fuzz")
		for bi, mk := range builders {
			s := mk()
			autos := make([]mac.Automaton, n)
			for i := range autos {
				autos[i] = &fuzzNode{budget: 1 + rng.Intn(5)}
			}
			eng := mac.NewEngine(mac.Config{
				Dual:      d,
				Fack:      fack,
				Fprog:     fprog,
				Scheduler: s,
				Seed:      seed*31 + int64(bi),
			}, autos)
			eng.Start()
			eng.Sim().SetStepLimit(2_000_000)
			eng.Run()
			rep := check.All(d, eng.Instances(), check.Params{
				Fack: fack, Fprog: fprog, End: eng.Sim().Now(),
			})
			if !rep.OK() {
				t.Fatalf("seed %d, %s on n=%d r=%d: %v",
					seed, s.Name(), n, r, rep.Violations[0])
			}
		}
	}
}

// TestSlotFuzz does the same for the enhanced-model slot scheduler with
// round-driven random broadcasters.
func TestSlotFuzz(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		n := 4 + rng.Intn(12)
		base := lineWithChords(rng, n)
		d := topology.RRestricted(base, 2, 0.5, rng, "slot-fuzz")
		autos := make([]mac.Automaton, n)
		for i := range autos {
			autos[i] = &roundNode{rounds: 6, quiet: rng.Intn(3) == 0}
		}
		eng := mac.NewEngine(mac.Config{
			Dual:      d,
			Fack:      fack,
			Fprog:     fprog,
			Scheduler: &sched.Slot{GreyP: rng.Float64()},
			Mode:      mac.Enhanced,
			Seed:      seed,
		}, autos)
		eng.Start()
		eng.Sim().SetStepLimit(2_000_000)
		eng.Run()
		rep := check.All(d, eng.Instances(), check.Params{
			Fack: fack, Fprog: fprog, End: eng.Sim().Now(),
		})
		if !rep.OK() {
			t.Fatalf("seed %d on n=%d: %v", seed, n, rep.Violations[0])
		}
	}
}

// lineWithChords returns an n-node line plus n/2 random chords drawn from
// rng, self-pairs skipped: a random connected base graph.
func lineWithChords(rng *rand.Rand, n int) *graph.Graph {
	edges := topology.Line(n).G.Edges()
	for e := 0; e < n/2; e++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			edges = append(edges, [2]mac.NodeID{mac.NodeID(u), mac.NodeID(v)})
		}
	}
	g := new(graph.Graph)
	g.SetEdges(n, edges)
	return g
}
