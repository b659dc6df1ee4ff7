package scenario

import (
	"testing"

	"amac/internal/mac"
	"amac/internal/topology"
)

// poolStub is a minimal resettable automaton for exercising the worker's
// parked fleet directly.
type poolStub struct{ resets int }

func (s *poolStub) Wakeup(mac.Context)             {}
func (s *poolStub) Recv(mac.Context, mac.Message)  {}
func (s *poolStub) Acked(mac.Context, mac.Message) {}
func (s *poolStub) Reset()                         { s.resets++ }

type unresettable struct{}

func (unresettable) Wakeup(mac.Context)             {}
func (unresettable) Recv(mac.Context, mac.Message)  {}
func (unresettable) Acked(mac.Context, mac.Message) {}

func stubFleet(n int) []mac.Automaton {
	out := make([]mac.Automaton, n)
	for i := range out {
		out[i] = &poolStub{}
	}
	return out
}

// linePlan resolves a BMMB plan (no Refit, so only the node count guards
// reuse) on an n-node line.
func linePlan(t *testing.T, n int) *trialPlan {
	t.Helper()
	r := Spec{
		Topology:  TopologySpec{Name: "line", Params: topology.Params{"n": float64(n)}},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 1},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
	}.WithDefaults()
	built, err := buildTopology(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := resolvePlan(r, built)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// isStub reports whether fleet is the given stub fleet (same backing
// array), as opposed to a freshly built one.
func isStub(fleet, stub []mac.Automaton) bool {
	return len(fleet) == len(stub) && len(fleet) > 0 && &fleet[0] == &stub[0]
}

// TestFleetPoolBounded pins the worker's fleet memory bound: it holds at
// most one parked fleet, the one its last trial retired. A sweep cooling
// down from big draws to small ones — each trial taking a fleet through
// fleetFor and parking it again, as execute does — releases every larger
// fleet instead of pinning it for the worker's lifetime.
func TestFleetPoolBounded(t *testing.T) {
	var w worker
	for _, n := range []int{400, 300, 200, 100, 50, 10, 4} {
		w.park(stubFleet(n + 1)) // a leftover of another size
		fleet, err := w.fleetFor(linePlan(t, n))
		if err != nil {
			t.Fatal(err)
		}
		if w.fleet != nil {
			t.Fatalf("n=%d: fleetFor left a fleet of %d parked during the trial", n, len(w.fleet))
		}
		if len(fleet) != n {
			t.Fatalf("n=%d: fleetFor returned %d automata", n, len(fleet))
		}
		w.park(fleet)
		if !isStub(w.fleet, fleet) {
			t.Fatalf("n=%d: the just-retired fleet is not the one parked", n)
		}
	}
}

// TestFleetPoolTakeAndReplace pins the reuse guard: fleetFor hands back
// the parked fleet, reset, exactly when its length equals the draw's node
// count, and takes it off the worker either way; parking a newer fleet
// replaces the older one.
func TestFleetPoolTakeAndReplace(t *testing.T) {
	var w worker
	p8 := linePlan(t, 8)
	stub := stubFleet(8)
	w.park(stub)
	got, err := w.fleetFor(p8)
	if err != nil {
		t.Fatal(err)
	}
	if !isStub(got, stub) {
		t.Fatal("fleetFor built a fresh fleet although the parked one matched the draw")
	}
	for i, a := range got {
		if r := a.(*poolStub).resets; r != 1 {
			t.Fatalf("automaton %d reset %d times, want 1", i, r)
		}
	}
	if w.fleet != nil {
		t.Fatal("fleetFor left the taken fleet parked")
	}
	if got, _ := w.fleetFor(p8); isStub(got, stub) {
		t.Fatal("a second fleetFor reused the fleet already taken")
	}

	older, newer := stubFleet(8), stubFleet(8)
	w.park(older)
	w.park(newer)
	if !isStub(w.fleet, newer) {
		t.Fatal("parking a newer fleet did not replace the older one")
	}
	got, err = w.fleetFor(linePlan(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || isStub(got, newer) {
		t.Fatal("fleetFor reused a parked fleet of the wrong size")
	}
	if w.fleet != nil {
		t.Fatal("the mismatched parked fleet was kept")
	}
}

// TestFleetPoolRejectsUnresettable pins that fleets whose automata cannot
// Reset are never parked — reusing them would leak one trial's state into
// the next.
func TestFleetPoolRejectsUnresettable(t *testing.T) {
	var w worker
	w.park([]mac.Automaton{unresettable{}, unresettable{}})
	if w.fleet != nil {
		t.Fatal("unresettable fleet was parked")
	}
	mixed := stubFleet(3)
	mixed[1] = unresettable{}
	w.park(mixed)
	if w.fleet != nil {
		t.Fatal("fleet with one unresettable automaton was parked")
	}
	w.park(nil)
	if w.fleet != nil {
		t.Fatal("empty fleet was parked")
	}
}
