package sched_test

import (
	"testing"

	"amac/internal/check"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// m0 and m1 are the adversary's two tagged messages.
var m0, m1 = mac.Int(0), mac.Int(1)

// floodNode is a minimal BMMB-like node for driving the ParallelLines
// adversary without importing core: FIFO queue + duplicate filter over
// payloads.
type floodNode struct {
	queue []mac.Payload
	seen  map[mac.Payload]bool
}

func newFloodNode() *floodNode { return &floodNode{seen: map[mac.Payload]bool{}} }

func (f *floodNode) learn(ctx mac.Context, m mac.Payload) {
	if f.seen[m] {
		return
	}
	f.seen[m] = true
	ctx.Emit("deliver", m)
	f.queue = append(f.queue, m)
	if !ctx.Pending() {
		ctx.Bcast(f.queue[0])
	}
}

func (f *floodNode) Wakeup(mac.Context) {}
func (f *floodNode) Recv(ctx mac.Context, m mac.Message) {
	f.learn(ctx, m.Payload)
}
func (f *floodNode) Acked(ctx mac.Context, m mac.Message) {
	f.queue = f.queue[1:]
	if len(f.queue) > 0 {
		ctx.Bcast(f.queue[0])
	}
}
func (f *floodNode) Arrive(ctx mac.Context, p mac.Payload) { f.learn(ctx, p) }

func TestParallelLinesForcesOneHopPerFack(t *testing.T) {
	const D = 6
	net := topology.NewParallelLinesC(D)
	s := &sched.ParallelLines{
		Net:  net,
		IsM0: func(p mac.Payload) bool { return p == m0 },
		IsM1: func(p mac.Payload) bool { return p == m1 },
	}
	autos := make([]mac.Automaton, net.N())
	for i := range autos {
		autos[i] = newFloodNode()
	}
	eng := mac.NewEngine(mac.Config{
		Dual:      net.Dual,
		Fack:      fack,
		Fprog:     fprog,
		Scheduler: s,
		Seed:      1,
	}, autos)

	// Record when each line-A node first delivers m0.
	firstM0 := make(map[int]sim.Time)
	eng.Watch(func(ev sim.TraceEvent) {
		if ev.Kind == "deliver" && ev.P == m0 && ev.Node < D {
			if _, ok := firstM0[ev.Node]; !ok {
				firstM0[ev.Node] = ev.At
			}
		}
	})
	eng.Start()
	eng.Arrive(net.A(1), m0, 0)
	eng.Arrive(net.B(1), m1, 0)
	eng.Sim().SetStepLimit(1_000_000)
	eng.Run()

	// Frontier law: a_{i} delivers m0 exactly at (i-1)·Fack.
	for i := 1; i <= D; i++ {
		at, ok := firstM0[int(net.A(i))]
		if !ok {
			t.Fatalf("a%d never delivered m0", i)
		}
		want := sim.Time(i-1) * fack
		if at != want {
			t.Fatalf("a%d delivered m0 at %v, want exactly %v", i, at, want)
		}
	}
	// And the adversary played by the rules.
	rep := check.All(net.Dual, eng.Instances(), check.Params{
		Fack: fack, Fprog: fprog, End: eng.Sim().Now(),
	})
	if !rep.OK() {
		t.Fatalf("adversary violated the model: %v", rep.Violations[0])
	}
}

func TestParallelLinesRequiresWiring(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing config did not panic")
		}
	}()
	net := topology.NewParallelLinesC(4)
	autos := make([]mac.Automaton, net.N())
	for i := range autos {
		autos[i] = newFloodNode()
	}
	mac.NewEngine(mac.Config{
		Dual:      net.Dual,
		Fack:      fack,
		Fprog:     fprog,
		Scheduler: &sched.ParallelLines{Net: net}, // IsM0/IsM1 missing
		Seed:      1,
	}, autos)
}

func TestParallelLinesCrossDeliveriesExist(t *testing.T) {
	// The adversary's progress-bound cover: during each stretch, the
	// diagonal node on the opposite line receives the frontier instance at
	// +Fprog over a G'-only edge.
	const D = 5
	net := topology.NewParallelLinesC(D)
	s := &sched.ParallelLines{
		Net:  net,
		IsM0: func(p mac.Payload) bool { return p == m0 },
		IsM1: func(p mac.Payload) bool { return p == m1 },
	}
	autos := make([]mac.Automaton, net.N())
	for i := range autos {
		autos[i] = newFloodNode()
	}
	eng := mac.NewEngine(mac.Config{
		Dual: net.Dual, Fack: fack, Fprog: fprog, Scheduler: s, Seed: 2,
	}, autos)
	eng.Start()
	eng.Arrive(net.A(1), m0, 0)
	eng.Arrive(net.B(1), m1, 0)
	eng.Sim().SetStepLimit(1_000_000)
	eng.Run()

	cross := 0
	for _, b := range eng.Instances() {
		for to := range b.Receivers() {
			if !net.G.HasEdge(b.Sender, to) {
				cross++
			}
		}
	}
	// One cross delivery per stretched instance per line: 2·(D-1) total.
	if cross != 2*(D-1) {
		t.Fatalf("cross deliveries = %d, want %d", cross, 2*(D-1))
	}
}
