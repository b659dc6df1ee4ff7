package core

import (
	"math/rand"
	"testing"

	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// runFMMB executes FMMB on the dual in the enhanced model with the slot
// scheduler, with model checking enabled.
func runFMMB(t *testing.T, d *topology.Dual, c float64, a Assignment, seed int64) *Result {
	t.Helper()
	cfg := FMMBConfig{N: d.N(), K: a.K(), D: d.G.Diameter(), C: c}
	res := MustRun(RunConfig{
		Dual:             d,
		Fack:             testFack,
		Fprog:            testFprog,
		Scheduler:        &sched.Slot{},
		Mode:             mac.Enhanced,
		Seed:             seed,
		Assignment:       a,
		Automata:         NewFMMBFleet(d.N(), cfg),
		Horizon:          sim.Time(cfg.Rounds()+2) * testFprog,
		StepLimit:        1 << 62,
		HaltOnCompletion: true,
		Options:          RunOptions{Check: true},
	})
	if len(res.MMBViolations) != 0 {
		t.Fatalf("MMB violations: %v", res.MMBViolations)
	}
	if res.Report != nil && !res.Report.OK() {
		t.Fatalf("model violation: %v", res.Report.Violations[0])
	}
	return res
}

func TestFMMBSingleMessageLine(t *testing.T) {
	d := topology.Line(10)
	res := runFMMB(t, d, 1.0, SingleSource(10, 0, 1), 21)
	if !res.Solved {
		t.Fatalf("not solved: %d/%d delivered by %v", res.Delivered, res.Required, res.End)
	}
}

func TestFMMBMultiMessageGrid(t *testing.T) {
	d := topology.Grid(4, 4)
	a := Singleton(16, []graph.NodeID{0, 5, 10, 15})
	res := runFMMB(t, d, 1.0, a, 22)
	if !res.Solved {
		t.Fatalf("not solved: %d/%d delivered by %v", res.Delivered, res.Required, res.End)
	}
}

func TestFMMBGreyZoneGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := 1.6
	d := topology.ConnectedRandomGeometric(40, 4.5, c, 0.5, rng, 100)
	if d == nil {
		t.Fatal("no connected instance")
	}
	a := Singleton(d.N(), []graph.NodeID{0, graph.NodeID(d.N() / 2)})
	res := runFMMB(t, d, c, a, 23)
	if !res.Solved {
		t.Fatalf("not solved: %d/%d delivered by %v", res.Delivered, res.Required, res.End)
	}
}

func TestFMMBManyMessagesOneSource(t *testing.T) {
	d := topology.Grid(3, 5)
	res := runFMMB(t, d, 1.0, SingleSource(15, 7, 6), 24)
	if !res.Solved {
		t.Fatalf("not solved: %d/%d delivered by %v", res.Delivered, res.Required, res.End)
	}
}

func TestFMMBSeedSweep(t *testing.T) {
	// The w.h.p. guarantee across seeds on a small network.
	d := topology.Grid(3, 4)
	for seed := int64(0); seed < 8; seed++ {
		a := Singleton(12, []graph.NodeID{0, 11})
		res := runFMMB(t, d, 1.0, a, seed)
		if !res.Solved {
			t.Fatalf("seed %d: not solved: %d/%d by %v",
				seed, res.Delivered, res.Required, res.End)
		}
	}
}

func TestFMMBNoFackDependence(t *testing.T) {
	// FMMB's completion time is measured in Fprog rounds and must not
	// change when Fack grows: the algorithm aborts every broadcast at
	// round boundaries and never waits for acknowledgments.
	d := topology.Grid(3, 4)
	a := Singleton(12, []graph.NodeID{0, 6})
	run := func(fack sim.Time) sim.Time {
		cfg := FMMBConfig{N: d.N(), K: a.K(), D: d.G.Diameter(), C: 1.0}
		res := MustRun(RunConfig{
			Dual:             d,
			Fack:             fack,
			Fprog:            testFprog,
			Scheduler:        &sched.Slot{},
			Mode:             mac.Enhanced,
			Seed:             77,
			Assignment:       a,
			Automata:         NewFMMBFleet(d.N(), cfg),
			Horizon:          sim.Time(cfg.Rounds()+2) * testFprog,
			StepLimit:        1 << 62,
			HaltOnCompletion: true,
		})
		if !res.Solved {
			t.Fatalf("Fack=%v: not solved", fack)
		}
		return res.CompletionTime
	}
	base := run(2 * testFprog)
	for _, fack := range []sim.Time{8 * testFprog, 64 * testFprog, 512 * testFprog} {
		if got := run(fack); got != base {
			t.Fatalf("completion depends on Fack: %v at Fack=%v vs %v", got, fack, base)
		}
	}
}

func TestFMMBGatherHandsMessagesToMIS(t *testing.T) {
	// After the gather stage, every message must be held by some MIS node
	// (Lemma 4.6). Observe by running to completion and inspecting
	// automata state.
	d := topology.Grid(4, 4)
	a := Singleton(16, []graph.NodeID{1, 6, 12})
	cfg := FMMBConfig{N: 16, K: 3, D: d.G.Diameter(), C: 1.0}
	autos := NewFMMBFleet(16, cfg)
	res := MustRun(RunConfig{
		Dual:             d,
		Fack:             testFack,
		Fprog:            testFprog,
		Scheduler:        &sched.Slot{},
		Mode:             mac.Enhanced,
		Seed:             55,
		Assignment:       a,
		Automata:         autos,
		Horizon:          sim.Time(cfg.Rounds()+2) * testFprog,
		StepLimit:        1 << 62,
		HaltOnCompletion: false, // run the full schedule
	})
	if !res.Solved {
		t.Fatalf("not solved: %d/%d", res.Delivered, res.Required)
	}
	for _, m := range a.Messages() {
		held := false
		for _, auto := range autos {
			f := auto.(*FMMB)
			if f.InMIS() && f.Holds(m) {
				held = true
				break
			}
		}
		if !held {
			t.Fatalf("message %v not held by any MIS node", m)
		}
	}
}

func TestFMMBOverlayDiameterBound(t *testing.T) {
	// Section 4.4 relies on D_H ≤ D for the overlay H over the MIS with
	// 3-hop edges; verify on the MIS the subroutine actually constructs.
	rng := rand.New(rand.NewSource(77))
	d := topology.ConnectedRandomGeometric(45, 4.6, 1.6, 0.5, rng, 100)
	if d == nil {
		t.Fatal("no connected instance")
	}
	mis, _ := runMIS(t, d, 1.6, 5)
	if !d.G.IsMaximalIndependent(mis) {
		t.Fatal("invalid MIS")
	}
	h, _ := d.G.Overlay(mis, 3)
	if !h.IsConnected() {
		t.Fatal("overlay H disconnected for a connected G")
	}
	if dh, dg := h.Diameter(), d.G.Diameter(); dh > dg {
		t.Fatalf("D_H = %d exceeds D = %d", dh, dg)
	}
}

func TestFMMBConfigRounds(t *testing.T) {
	cfg := FMMBConfig{N: 32, K: 4, D: 8, C: 1.5}.withDefaults()
	want := cfg.MIS.Rounds() + 3*cfg.GatherPeriods + cfg.SpreadPhases*cfg.SpreadPeriods*3
	if got := cfg.Rounds(); got != want {
		t.Fatalf("Rounds = %d, want %d", got, want)
	}
}

// spreadAssignment numbers k messages 0..k−1 and injects message i at node
// i mod n, so the origins differ from message to message.
func spreadAssignment(n, k int) Assignment {
	a := make(Assignment, n)
	for i := 0; i < k; i++ {
		v := graph.NodeID(i % n)
		a[v] = append(a[v], Msg{ID: i, Origin: v})
	}
	return a
}

// TestFMMBSolvesPastOneWord runs FMMB with k = 65 and k = 130 messages,
// where its ID-keyed message sets grow past their inline first word (and,
// at 130, past a second), with the MMB watcher and check.All clean. Every
// message must end up held, with its own origin, by some MIS node. With
// about k/n messages per node the default SpreadPhases slack is too tight
// (760 of 780 deliveries at k = 65), so the schedule runs 2(D + k) phases.
func TestFMMBSolvesPastOneWord(t *testing.T) {
	d := topology.Grid(3, 4)
	for _, k := range []int{65, 130} {
		a := spreadAssignment(d.N(), k)
		cfg := FMMBConfig{N: d.N(), K: k, D: d.G.Diameter(), C: 1.0, SpreadPhases: 2 * (d.G.Diameter() + k)}
		autos := NewFMMBFleet(d.N(), cfg)
		res := MustRun(RunConfig{
			Dual:       d,
			Fack:       testFack,
			Fprog:      testFprog,
			Scheduler:  &sched.Slot{},
			Mode:       mac.Enhanced,
			Seed:       int64(k),
			Assignment: a,
			Automata:   autos,
			Horizon:    sim.Time(cfg.Rounds()+2) * testFprog,
			StepLimit:  1 << 62,
			Options:    RunOptions{Check: true},
		})
		if len(res.MMBViolations) != 0 {
			t.Fatalf("k=%d: MMB violations: %v", k, res.MMBViolations)
		}
		if res.Report == nil || !res.Report.OK() {
			t.Fatalf("k=%d: model check: %+v", k, res.Report)
		}
		if !res.Solved {
			t.Fatalf("k=%d: not solved: %d/%d delivered by %v", k, res.Delivered, res.Required, res.End)
		}
		for _, m := range a.Messages() {
			held := false
			for _, auto := range autos {
				if f := auto.(*FMMB); f.InMIS() && f.Holds(m) {
					held = true
					break
				}
			}
			if !held {
				t.Fatalf("k=%d: message %v not held by any MIS node", k, m)
			}
		}
	}
}

// emitCtx is the one Context method FMMB's message bookkeeping calls,
// Emit, discarding the event; any other call panics on the nil embedded
// interface.
type emitCtx struct{ mac.Context }

func (emitCtx) Emit(string, mac.Payload) {}

// TestFMMBHoldsChecksOrigin pins that the ID-keyed message set still names
// whole messages: Holds accepts a held message and rejects its ID with
// another origin, an ID it does not hold and IDs outside every word.
func TestFMMBHoldsChecksOrigin(t *testing.T) {
	f := NewFMMB(FMMBConfig{N: 8, K: 4})
	f.Arrive(emitCtx{}, Msg{ID: 3, Origin: 5}.Payload())
	f.Arrive(emitCtx{}, Msg{ID: 100, Origin: 2}.Payload())
	for _, tc := range []struct {
		m    Msg
		want bool
	}{
		{Msg{ID: 3, Origin: 5}, true},
		{Msg{ID: 3, Origin: 6}, false},
		{Msg{ID: 3, Origin: 0}, false},
		{Msg{ID: 100, Origin: 2}, true},
		{Msg{ID: 100, Origin: 5}, false},
		{Msg{ID: 2, Origin: 5}, false},
		{Msg{ID: 1000, Origin: 5}, false},
		{Msg{ID: -1, Origin: 5}, false},
	} {
		if got := f.Holds(tc.m); got != tc.want {
			t.Errorf("Holds(%v) = %v, want %v", tc.m, got, tc.want)
		}
	}
	f.Reset()
	if f.Holds(Msg{ID: 3, Origin: 5}) {
		t.Error("Holds a message after Reset")
	}
}

// TestFMMBPickUnsentLowestHeld pins pickUnsent against a min-scan of the
// held set: it returns the lowest-ID message that is held and not yet
// sent, with its origin, across word boundaries, and nothing once every
// held message is sent or when the node is not in the MIS.
func TestFMMBPickUnsentLowestHeld(t *testing.T) {
	f := NewFMMB(FMMBConfig{N: 8, K: 4})
	f.mis.InMIS = true
	held := map[Msg]bool{}
	for _, m := range []Msg{{130, 1}, {70, 7}, {3, 2}, {64, 0}, {9, 4}, {63, 6}} {
		f.deliver(emitCtx{}, m)
		f.inbox = append(f.inbox, m)
		held[m] = true
	}
	f.mergeInbox()
	sent := map[Msg]bool{}
	for {
		var want Msg
		found := false
		for m := range held {
			if !sent[m] && (!found || m.ID < want.ID) {
				want, found = m, true
			}
		}
		got, ok := f.pickUnsent()
		if ok != found || got != want {
			t.Fatalf("pickUnsent = %v, %v; want %v, %v (sent %v)", got, ok, want, found, sent)
		}
		if !ok {
			break
		}
		f.sent.add(got.ID)
		sent[got] = true
	}
	f.mis.InMIS = false
	f.sent.reset()
	if m, ok := f.pickUnsent(); ok {
		t.Fatalf("a node outside the MIS picked %v", m)
	}
}
