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

const (
	testFprog = sim.Time(10)
	testFack  = sim.Time(200)
)

// runBMMB executes BMMB on the dual with the given scheduler and
// assignment, with model checking enabled.
func runBMMB(t *testing.T, d *topology.Dual, s mac.Scheduler, a Assignment, seed int64) *Result {
	t.Helper()
	res := MustRun(RunConfig{
		Dual:             d,
		Fack:             testFack,
		Fprog:            testFprog,
		Scheduler:        s,
		Seed:             seed,
		Assignment:       a,
		Automata:         NewBMMBFleet(d.N()),
		HaltOnCompletion: true,
		Options:          RunOptions{Check: true},
	})
	if len(res.MMBViolations) != 0 {
		t.Fatalf("MMB violations: %v", res.MMBViolations)
	}
	if res.Report != nil && !res.Report.OK() {
		t.Fatalf("model violations: %v", res.Report.Violations[0])
	}
	return res
}

func TestBMMBSingleMessageLineSync(t *testing.T) {
	d := topology.Line(10)
	res := runBMMB(t, d, &sched.Sync{}, SingleSource(10, 0, 1), 1)
	if !res.Solved {
		t.Fatalf("not solved: delivered %d/%d by %v", res.Delivered, res.Required, res.End)
	}
	// One message floods a line: each hop takes Fprog under Sync.
	want := sim.Time(9) * testFprog
	if res.CompletionTime != want {
		t.Fatalf("completion = %v, want %v", res.CompletionTime, want)
	}
}

func TestBMMBMultiMessageLineSync(t *testing.T) {
	n, k := 12, 5
	d := topology.Line(n)
	res := runBMMB(t, d, &sched.Sync{}, SingleSource(n, 0, k), 1)
	if !res.Solved {
		t.Fatal("not solved")
	}
	// Pipeline: source emits one message per Fack; last message then
	// floods D hops at Fprog each. Bound O(D·Fprog + k·Fack).
	bound := sim.Time(n-1)*testFprog + sim.Time(k)*testFack
	if res.CompletionTime > bound {
		t.Fatalf("completion %v exceeds O(DFprog+kFack) = %v", res.CompletionTime, bound)
	}
	// And it should genuinely take about (k-1) acks plus the flood.
	lower := sim.Time(k-1) * testFack
	if res.CompletionTime < lower {
		t.Fatalf("completion %v suspiciously below source serialization %v",
			res.CompletionTime, lower)
	}
}

func TestBMMBSchedulerMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	duals := []*topology.Dual{
		topology.Line(8),
		topology.Ring(9),
		topology.Star(8),
		topology.Grid(3, 4),
		topology.CompleteBinaryTree(15),
		topology.LineRRestricted(12, 3, 0.5, rng),
		topology.ArbitraryNoise(topology.Line(12).G, 6, rng, "noisy-line"),
	}
	makeScheds := func() []mac.Scheduler {
		return []mac.Scheduler{
			&sched.Sync{},
			&sched.Sync{Rel: sched.Always{}},
			&sched.Sync{Rel: sched.Bernoulli{P: 0.5}, AckDelay: testFprog},
			&sched.Random{},
			&sched.Random{Rel: sched.Bernoulli{P: 0.7}},
			&sched.Contention{},
			&sched.Contention{Rel: sched.Bernoulli{P: 0.5}},
		}
	}
	for _, d := range duals {
		for si := range makeScheds() {
			d, si := d, si
			t.Run(d.Name+"/"+makeScheds()[si].Name(), func(t *testing.T) {
				// Multi-source workload: messages at nodes 0 and n/2.
				a := Singleton(d.N(), []graph.NodeID{0, graph.NodeID(d.N() / 2), 0})
				res := runBMMB(t, d, makeScheds()[si], a, int64(si)+11)
				if !res.Solved {
					t.Fatalf("not solved: %d/%d delivered by %v (steps %d)",
						res.Delivered, res.Required, res.End, res.Steps)
				}
			})
		}
	}
}

func TestBMMBDisconnectedComponents(t *testing.T) {
	// Two disjoint lines; message in each component must only cover its
	// own component.
	g := new(graph.Graph)
	g.SetEdges(8, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}})
	d := topology.Reliable(g, "two-lines")
	a := Singleton(8, []graph.NodeID{0, 4})
	res := runBMMB(t, d, &sched.Sync{}, a, 3)
	if !res.Solved {
		t.Fatal("not solved")
	}
	if res.Required != 8 { // each message reaches its 4-node component
		t.Fatalf("required = %d, want 8", res.Required)
	}
}

func TestBMMBDeliversExactlyOnce(t *testing.T) {
	d := topology.LineRRestricted(10, 2, 1.0, rand.New(rand.NewSource(5)))
	res := runBMMB(t, d, &sched.Sync{Rel: sched.Always{}}, SingleSource(10, 5, 4), 5)
	if !res.Solved {
		t.Fatal("not solved")
	}
	// Count deliver events in the trace: exactly one per (node, msg).
	counts := make(map[[2]int]int)
	for _, ev := range res.Trace.Filter(DeliverKind) {
		m := ev.Value().(Msg)
		counts[[2]int{ev.Node, m.ID}]++
	}
	if len(counts) != 40 {
		t.Fatalf("distinct deliveries = %d, want 40", len(counts))
	}
	for key, c := range counts {
		if c != 1 {
			t.Fatalf("node %d delivered m%d %d times", key[0], key[1], c)
		}
	}
}

func TestBMMBDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, int) {
		d := topology.LineRRestricted(14, 3, 0.4, rand.New(rand.NewSource(2)))
		res := MustRun(RunConfig{
			Dual:             d,
			Fack:             testFack,
			Fprog:            testFprog,
			Scheduler:        &sched.Random{Rel: sched.Bernoulli{P: 0.5}},
			Seed:             99,
			Assignment:       SingleSource(14, 0, 3),
			Automata:         NewBMMBFleet(14),
			HaltOnCompletion: true,
		})
		return res.CompletionTime, res.Broadcasts
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("replay diverged: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
	}
}

func TestBMMBQueueIsFIFO(t *testing.T) {
	// Inject 3 messages at one node; its broadcast order must match
	// arrival order.
	d := topology.Line(4)
	res := runBMMB(t, d, &sched.Sync{}, SingleSource(4, 0, 3), 8)
	if !res.Solved {
		t.Fatal("not solved")
	}
	var order []int
	for _, b := range res.Engine.Instances() {
		if b.Sender == 0 {
			order = append(order, mustMsg(b.Payload).ID)
		}
	}
	if len(order) != 3 {
		t.Fatalf("source broadcast %d instances, want 3", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("broadcast order %v not FIFO", order)
		}
	}
}

func TestBMMBStarChokeLowerBound(t *testing.T) {
	// Lemma 3.18: k messages through a bridge node take Ω(k·Fack) under a
	// scheduler that stretches every ack to Fack.
	k := 8
	s := topology.NewStarChoke(k)
	a := make(Assignment, s.N())
	for i := 1; i < k; i++ {
		v := s.Source(i)
		a[v] = append(a[v], Msg{ID: i - 1, Origin: v})
	}
	hub := s.Hub()
	a[hub] = append(a[hub], Msg{ID: k - 1, Origin: hub})
	res := runBMMB(t, s.Dual, &sched.Sync{}, a, 4)
	if !res.Solved {
		t.Fatal("not solved")
	}
	// The receiver gets at most one new message per Fack: completion is at
	// least (k-1)·Fack.
	lower := sim.Time(k-1) * testFack
	if res.CompletionTime < lower {
		t.Fatalf("completion %v below the choke-point bound %v", res.CompletionTime, lower)
	}
	upper := sim.Time(2*k) * testFack
	if res.CompletionTime > upper {
		t.Fatalf("completion %v way above expectation %v", res.CompletionTime, upper)
	}
}

func TestBMMBParallelLinesLowerBound(t *testing.T) {
	// Lemmas 3.19/3.20: on network C, the adversarial schedule forces
	// Ω(D·Fack) for k = 2.
	for _, D := range []int{4, 8, 16} {
		c := topology.NewParallelLinesC(D)
		m0 := Msg{ID: 0, Origin: c.A(1)}
		m1 := Msg{ID: 1, Origin: c.B(1)}
		a := make(Assignment, c.N())
		a[c.A(1)] = []Msg{m0}
		a[c.B(1)] = []Msg{m1}
		s := &sched.ParallelLines{
			Net: c,
			M0:  m0.Payload(),
			M1:  m1.Payload(),
		}
		res := runBMMB(t, c.Dual, s, a, 6)
		if !res.Solved {
			t.Fatalf("D=%d: not solved: %d/%d by %v", D, res.Delivered, res.Required, res.End)
		}
		want := sim.Time(D-1) * testFack
		if res.CompletionTime < want {
			t.Fatalf("D=%d: completion %v below the adversarial bound %v",
				D, res.CompletionTime, want)
		}
	}
}

// TestBMMBRcvdBitsetPastOneWord floods k = 130 messages — three words of
// BMMB's rcvd bitset, so the set grows past its inline first word — and
// checks that the run solves, that Received agrees with the deliveries at
// every node (and rejects IDs outside 0..k−1), and that Reset empties the
// set and the queue so a warm rerun solves again.
func TestBMMBRcvdBitsetPastOneWord(t *testing.T) {
	const k = 130
	d := topology.Line(5)
	a := SingleSource(d.N(), 2, k)
	fleet := NewBMMBFleet(d.N())
	rn := NewRunner(d)
	for run := 0; run < 2; run++ {
		res, err := rn.Run(RunConfig{Dual: d, Fack: testFack, Fprog: testFprog,
			Scheduler: &sched.Sync{}, Seed: 1, Assignment: a, Automata: fleet,
			HaltOnCompletion: true, Options: RunOptions{Check: true}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved || res.Delivered != k*d.N() || len(res.MMBViolations) != 0 || !res.Report.OK() {
			t.Fatalf("run %d: solved=%v delivered %d/%d, violations %v %v",
				run, res.Solved, res.Delivered, k*d.N(), res.MMBViolations, res.Report.Violations)
		}
		for v, auto := range fleet {
			b := auto.(*BMMB)
			for id := 0; id < k; id++ {
				if !b.Received(Msg{ID: id, Origin: 2}) {
					t.Fatalf("run %d: node %d delivered m%d but Received says no", run, v, id)
				}
			}
			if b.Received(Msg{ID: k, Origin: 2}) || b.Received(Msg{ID: -1, Origin: 2}) {
				t.Fatalf("run %d: node %d reports receiving an ID outside 0..%d", run, v, k-1)
			}
		}
		for _, auto := range fleet {
			b := auto.(*BMMB)
			b.Reset()
			for id := 0; id < k; id++ {
				if b.Received(Msg{ID: id, Origin: 2}) {
					t.Fatalf("Reset left m%d in rcvd", id)
				}
			}
			if len(b.Queue()) != 0 {
				t.Fatalf("Reset left %d queued messages", len(b.Queue()))
			}
		}
	}
}
