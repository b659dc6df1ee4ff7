package scenario_test

import (
	"fmt"
	"slices"
	"testing"

	"amac/internal/core"
	"amac/internal/mac"
	"amac/internal/scenario"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// gEdgeTally counts a run's rcvs by the G-edge bit their Message carried,
// and the rcvs whose bit disagreed with the receiver's own G row.
type gEdgeTally struct{ reliable, grey, wrong int }

// gEdgeProbe wraps one node's automaton and checks, on every rcv, that
// Message.Reliable equals Sender ∈ GNeighbors() before passing it on.
type gEdgeProbe struct {
	mac.Automaton
	tally *gEdgeTally
}

func (p *gEdgeProbe) Recv(ctx mac.Context, m mac.Message) {
	_, inG := slices.BinarySearch(ctx.GNeighbors(), m.Sender)
	switch {
	case inG != m.Reliable:
		p.tally.wrong++
	case inG:
		p.tally.reliable++
	default:
		p.tally.grey++
	}
	p.Automaton.Recv(ctx, m)
}

func (p *gEdgeProbe) Arrive(ctx mac.Context, payload mac.Payload) {
	p.Automaton.(mac.Arriver).Arrive(ctx, payload)
}

func (p *gEdgeProbe) Timer(ctx mac.EnhancedContext) {
	p.Automaton.(mac.TimerHandler).Timer(ctx)
}

// probeRun runs trial 0 of spec the way a scenario trial resolves it (its
// network, workload, algorithm and scheduler) with every automaton wrapped
// in a gEdgeProbe, and returns the tally.
func probeRun(t *testing.T, spec scenario.Spec) gEdgeTally {
	t.Helper()
	r := spec.WithDefaults()
	built, err := scenario.BuildTopology(r, r.Run.Seed)
	if err != nil {
		t.Fatal(err)
	}
	workload, err := scenario.ResolveWorkload(r, built)
	if err != nil {
		t.Fatal(err)
	}
	alg, ok := core.LookupAlgorithm(r.Algorithm.Name)
	if !ok {
		t.Fatalf("unknown algorithm %q", r.Algorithm.Name)
	}
	schedName := r.Scheduler.Name
	if schedName == "" {
		schedName = alg.DefaultScheduler
	}
	env := sched.Env{
		Dual:     built.Dual,
		Artifact: built.Artifact,
		Fprog:    sim.Time(r.Model.Fprog),
		Fack:     sim.Time(r.Model.Fack),
	}
	for _, ar := range workload.Arrivals() {
		env.Payloads = append(env.Payloads, ar.Msg.Payload())
	}
	s, err := sched.Build(schedName, env, r.Scheduler.Params)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := alg.NewFleet(built.Dual, workload.K(), r.Algorithm.Params)
	if err != nil {
		t.Fatal(err)
	}
	var tally gEdgeTally
	for i, a := range fleet {
		fleet[i] = &gEdgeProbe{a, &tally}
	}
	var horizon sim.Time
	if alg.Horizon != nil {
		horizon = alg.Horizon(built.Dual, workload.K(), env.Fprog, r.Algorithm.Params)
	}
	res, err := core.Run(core.RunConfig{
		Dual:             built.Dual,
		Fack:             env.Fack,
		Fprog:            env.Fprog,
		Scheduler:        s,
		Mode:             alg.Mode,
		Seed:             r.Run.Seed,
		Workload:         workload,
		Automata:         fleet,
		Horizon:          horizon,
		StepLimit:        alg.StepLimit,
		HaltOnCompletion: true,
		Options:          core.RunOptions{Trace: core.TraceOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MMBViolations) != 0 {
		t.Fatalf("MMB violations: %v", res.MMBViolations)
	}
	if tally.wrong != 0 {
		t.Fatalf("%d of %d rcvs carried a G-edge bit that disagrees with the receiver's G row",
			tally.wrong, tally.wrong+tally.reliable+tally.grey)
	}
	return tally
}

// TestRcvGEdgeBitGolden checks the G-edge bit on every rcv of every golden
// scenario, the slot scheduler's FMMB run among them.
func TestRcvGEdgeBitGolden(t *testing.T) {
	for _, name := range sched.Names() {
		spec, ok := goldenSpec(name)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			if got := probeRun(t, spec); got.reliable == 0 {
				t.Fatalf("no reliable rcvs: %+v", got)
			}
		})
	}
}

// TestRcvGEdgeBitGreyRGG checks the G-edge bit on every rcv on a
// grey-heavy rgg (c = 2.5, so most G′ links are grey, kept with p = 0.9)
// under every scheduler that runs on a general network, each firing grey
// links: BMMB under each, and FMMB under slot, its scheduler (sync delivers
// after FMMB's round-end aborts, so FMMB receives nothing there). Every run
// must see both kinds of rcv.
func TestRcvGEdgeBitGreyRGG(t *testing.T) {
	for _, schedName := range []string{"sync", "random", "contention", "slot"} {
		algs := []string{"bmmb"}
		if schedName == "slot" {
			algs = append(algs, "fmmb")
		}
		for _, alg := range algs {
			t.Run(fmt.Sprintf("%s/%s", schedName, alg), func(t *testing.T) {
				spec := scenario.Spec{
					Topology: scenario.TopologySpec{
						Name:   "rgg",
						Params: topology.Params{"n": 120, "side": 5, "c": 2.5, "p": 0.9},
						Seed:   11,
					},
					Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 3},
					Algorithm: scenario.AlgorithmSpec{Name: alg},
					Scheduler: scenario.SchedulerSpec{Name: schedName},
					Model:     scenario.ModelSpec{Fprog: 10, Fack: 200},
					Run:       scenario.RunSpec{Seed: 3},
				}
				if schedName != "slot" {
					spec.Scheduler.Params = topology.Params{"rel": 0.5}
				}
				got := probeRun(t, spec)
				if got.reliable == 0 || got.grey == 0 {
					t.Fatalf("want reliable and grey rcvs, got %+v", got)
				}
			})
		}
	}
}
