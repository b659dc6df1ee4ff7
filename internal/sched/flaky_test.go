package sched_test

import (
	"math/rand"
	"testing"

	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// TestFlakyInitialPhaseHonorsDraw is the regression test for the
// initial-phase bug: the randomly drawn time-zero state used to be toggled
// by the first advance-loop iteration (until started at 0 ≤ Start), so the
// draw meant the opposite phase. A probe at Start=0 must now report exactly
// what a same-seeded stream draws first.
func TestFlakyInitialPhaseHonorsDraw(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		want := rand.New(rand.NewSource(seed)).Intn(2) == 0
		f := &sched.Flaky{MeanUp: 25, MeanDown: 25}
		got := f.Deliver(rand.New(rand.NewSource(seed)), &mac.Instance{Sender: 0, Start: 0}, 1)
		if got != want {
			t.Errorf("seed %d: phase at t=0 is %v, initial draw was %v", seed, got, want)
		}
	}
}

// TestFlakyPhaseSequencePinned pins the whole phase chain at a fixed seed
// against an independently advanced twin: the phase at time t is the drawn
// initial phase extended by lengths drawn for each phase as it is entered.
func TestFlakyPhaseSequencePinned(t *testing.T) {
	const meanUp, meanDown = 8, 4
	mean := func(up bool) int64 {
		if up {
			return meanUp
		}
		return meanDown
	}
	f := &sched.Flaky{MeanUp: meanUp, MeanDown: meanDown}
	rng := rand.New(rand.NewSource(42))
	twin := rand.New(rand.NewSource(42))
	up := twin.Intn(2) == 0
	until := sim.Time(1 + twin.Int63n(2*mean(up)))
	transitions := 0
	for start := sim.Time(0); start < 500; start++ {
		for until <= start {
			up = !up
			until += sim.Time(1 + twin.Int63n(2*mean(up)))
			transitions++
		}
		if got := f.Deliver(rng, &mac.Instance{Sender: 0, Start: start}, 1); got != up {
			t.Fatalf("phase at t=%d: Deliver says up=%v, chain says up=%v", start, got, up)
		}
	}
	if transitions < 10 {
		t.Fatalf("only %d phase transitions in 500 ticks; chain not advancing", transitions)
	}
}

func TestFlakyAlternates(t *testing.T) {
	f := &sched.Flaky{MeanUp: 20, MeanDown: 20}
	rng := rand.New(rand.NewSource(1))
	up, down := 0, 0
	for start := sim.Time(0); start < 4000; start += 10 {
		b := &mac.Instance{Sender: 0, Start: start}
		if f.Deliver(rng, b, 1) {
			up++
		} else {
			down++
		}
	}
	// Symmetric means: both phases must be visited substantially.
	if up < 100 || down < 100 {
		t.Fatalf("up=%d down=%d: phases not alternating", up, down)
	}
}

func TestFlakyAsymmetricMeans(t *testing.T) {
	f := &sched.Flaky{MeanUp: 90, MeanDown: 10}
	rng := rand.New(rand.NewSource(2))
	up := 0
	const probes = 1000
	for i := 0; i < probes; i++ {
		b := &mac.Instance{Sender: 0, Start: sim.Time(i * 10)}
		if f.Deliver(rng, b, 1) {
			up++
		}
	}
	frac := float64(up) / probes
	if frac < 0.7 {
		t.Fatalf("up fraction %.2f, want ~0.9 for 90/10 means", frac)
	}
}

func TestFlakyPerEdgeIndependence(t *testing.T) {
	f := &sched.Flaky{MeanUp: 30, MeanDown: 30}
	rng := rand.New(rand.NewSource(3))
	same := 0
	const probes = 500
	for i := 0; i < probes; i++ {
		b := &mac.Instance{Sender: 0, Start: sim.Time(i * 10)}
		a := f.Deliver(rng, b, 1)
		c := f.Deliver(rng, b, 2)
		if a == c {
			same++
		}
	}
	if same == probes {
		t.Fatal("edges (0,1) and (0,2) perfectly correlated — per-edge state broken")
	}
}

func TestFlakyUndirectedEdgeState(t *testing.T) {
	// The edge (u,v) and (v,u) must share one state.
	f := &sched.Flaky{MeanUp: 1000000, MeanDown: 1}
	rng := rand.New(rand.NewSource(4))
	b1 := &mac.Instance{Sender: 0, Start: 100}
	b2 := &mac.Instance{Sender: 1, Start: 100}
	if f.Deliver(rng, b1, 1) != f.Deliver(rng, b2, 0) {
		t.Fatal("(0,1) and (1,0) report different states at the same time")
	}
}

func TestFlakyInsideSyncSchedulerModelCompliance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := topology.LineRRestricted(10, 3, 1.0, rng)
	eng := runChecked(t, d,
		&sched.Sync{Rel: &sched.Flaky{MeanUp: 40, MeanDown: 40}},
		chattyFleet(10, 4), 6)
	grey := 0
	for _, b := range eng.Instances() {
		for to := range b.Receivers() {
			if !d.G.HasEdge(b.Sender, to) {
				grey++
			}
		}
	}
	if grey == 0 {
		t.Fatal("flaky links never fired across the whole run")
	}
}
