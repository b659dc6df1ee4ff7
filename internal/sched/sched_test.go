package sched_test

import (
	"math/rand"
	"testing"

	"amac/internal/check"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

const (
	fprog = sim.Time(10)
	fack  = sim.Time(200)
)

// chattyNode broadcasts `count` payloads back to back (waiting for each
// ack), which exercises scheduler pipelines under sustained load.
type chattyNode struct {
	count int
	sent  int
	recvd int
}

func (c *chattyNode) Wakeup(ctx mac.Context) { c.next(ctx) }
func (c *chattyNode) next(ctx mac.Context) {
	if c.sent < c.count && !ctx.Pending() {
		c.sent++
		ctx.Bcast(sim.Payload{Kind: sim.PayloadInt, A: int64(ctx.ID()), B: int64(c.sent)})
	}
}
func (c *chattyNode) Recv(_ mac.Context, _ mac.Message)    { c.recvd++ }
func (c *chattyNode) Acked(ctx mac.Context, _ mac.Message) { c.next(ctx) }

func chattyFleet(n, count int) []mac.Automaton {
	out := make([]mac.Automaton, n)
	for i := range out {
		out[i] = &chattyNode{count: count}
	}
	return out
}

// runChecked runs the fleet on the dual with the scheduler and fails the
// test on any model violation.
func runChecked(t *testing.T, d *topology.Dual, s mac.Scheduler, autos []mac.Automaton, seed int64) *mac.Engine {
	t.Helper()
	eng := mac.NewEngine(mac.Config{
		Dual:      d,
		Fack:      fack,
		Fprog:     fprog,
		Scheduler: s,
		Seed:      seed,
	}, autos)
	eng.Start()
	eng.Sim().SetStepLimit(5_000_000)
	eng.Run()
	rep := check.All(d, eng.Instances(), check.Params{
		Fack: fack, Fprog: fprog, End: eng.Sim().Now(),
	})
	if !rep.OK() {
		t.Fatalf("%s violates the model: %v", s.Name(), rep.Violations[0])
	}
	return eng
}

// TestSchedulersModelCompliance stresses every general-purpose scheduler on
// several topologies under sustained load and verifies all five model
// guarantees on the recorded execution.
func TestSchedulersModelCompliance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	duals := []*topology.Dual{
		topology.Line(6),
		topology.Star(10),
		topology.Grid(3, 3),
		topology.LineRRestricted(10, 3, 1.0, rng),
		topology.ArbitraryNoise(topology.Line(10).G, 8, rng, "noise"),
	}
	builders := []func() mac.Scheduler{
		func() mac.Scheduler { return &sched.Sync{} },
		func() mac.Scheduler { return &sched.Sync{Rel: sched.Always{}} },
		func() mac.Scheduler { return &sched.Sync{RecvDelay: 1, AckDelay: 1, Rel: sched.Bernoulli{P: 0.4}} },
		func() mac.Scheduler { return &sched.Random{} },
		func() mac.Scheduler { return &sched.Random{Rel: sched.Always{}} },
		func() mac.Scheduler { return &sched.Contention{} },
		func() mac.Scheduler { return &sched.Contention{Rel: sched.Bernoulli{P: 0.6}} },
	}
	for _, d := range duals {
		for _, mk := range builders {
			s := mk()
			t.Run(d.Name+"/"+s.Name(), func(t *testing.T) {
				eng := runChecked(t, d, s, chattyFleet(d.N(), 4), 7)
				// Every broadcast must eventually have terminated.
				for _, b := range eng.Instances() {
					if !b.Terminated() {
						t.Fatalf("instance %d never terminated", b.ID)
					}
				}
			})
		}
	}
}

func TestSyncDeliversToAllGNeighbors(t *testing.T) {
	d := topology.Star(8)
	eng := runChecked(t, d, &sched.Sync{}, chattyFleet(8, 1), 3)
	for _, b := range eng.Instances() {
		for _, j := range d.G.Neighbors(b.Sender) {
			if !b.WasDelivered(j) {
				t.Fatalf("instance %d missed G-neighbor %d", b.ID, j)
			}
		}
	}
}

func TestSyncGreyDeliveries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := topology.LineRRestricted(8, 3, 1.0, rng)
	eng := runChecked(t, d, &sched.Sync{Rel: sched.Always{}}, chattyFleet(8, 1), 3)
	// With Always, every G' neighbor receives every instance.
	for _, b := range eng.Instances() {
		for _, j := range d.GPrime.Neighbors(b.Sender) {
			if !b.WasDelivered(j) {
				t.Fatalf("instance %d missed G' neighbor %d under Always", b.ID, j)
			}
		}
	}
	// With Never, only G neighbors receive.
	eng = runChecked(t, d, &sched.Sync{Rel: sched.Never{}}, chattyFleet(8, 1), 3)
	for _, b := range eng.Instances() {
		for to := range b.Receivers() {
			if !d.G.HasEdge(b.Sender, to) {
				t.Fatalf("instance %d leaked to non-G neighbor %d under Never", b.ID, to)
			}
		}
	}
}

func TestSyncAckTiming(t *testing.T) {
	d := topology.Line(3)
	eng := runChecked(t, d, &sched.Sync{}, chattyFleet(3, 2), 3)
	for _, b := range eng.Instances() {
		if b.Term != mac.Acked {
			t.Fatalf("instance %d not acked", b.ID)
		}
		if got := b.TermAt - b.Start; got != fack {
			t.Fatalf("instance %d acked after %v, want exactly Fack=%v", b.ID, got, fack)
		}
	}
}

func TestContentionRespectsSlotCapacity(t *testing.T) {
	// On a star, the hub faces maximal contention; it must still receive
	// roughly one message per Fprog, and never two in the same tick unless
	// deadline-forced.
	d := topology.Star(12)
	eng := runChecked(t, d, &sched.Contention{}, chattyFleet(12, 3), 9)
	var hubRecvs []sim.Time
	for _, b := range eng.Instances() {
		if at, ok := b.DeliveredAt(0); ok {
			hubRecvs = append(hubRecvs, at)
		}
	}
	if len(hubRecvs) != 11*3 {
		t.Fatalf("hub receives = %d, want 33", len(hubRecvs))
	}
}

func TestContentionStarFprogVsFack(t *testing.T) {
	// The paper's footnote-2 example: in a star where all leaves
	// broadcast, the hub receives *some* message quickly (≤ Fprog) while
	// the last leaf waits much longer for its ack (contention).
	d := topology.Star(20)
	autos := chattyFleet(20, 1)
	eng := runChecked(t, d, &sched.Contention{}, autos, 11)
	firstHubRecv := sim.Infinity
	lastLeafAck := sim.Time(0)
	for _, b := range eng.Instances() {
		if b.Sender != 0 {
			if at, ok := b.DeliveredAt(0); ok && at < firstHubRecv {
				firstHubRecv = at
			}
			if b.Term == mac.Acked && b.TermAt > lastLeafAck {
				lastLeafAck = b.TermAt
			}
		}
	}
	if firstHubRecv > fprog {
		t.Fatalf("first hub receive at %v, want <= Fprog=%v", firstHubRecv, fprog)
	}
	if lastLeafAck < 5*fprog {
		t.Fatalf("last leaf ack at %v: contention should stretch acks well past Fprog", lastLeafAck)
	}
}

func TestReliabilityPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := &mac.Instance{}
	if !(sched.Always{}).Deliver(rng, b, 0) {
		t.Fatal("Always returned false")
	}
	if (sched.Never{}).Deliver(rng, b, 0) {
		t.Fatal("Never returned true")
	}
	hits := 0
	const trials = 10_000
	pol := sched.Bernoulli{P: 0.3}
	for i := 0; i < trials; i++ {
		if pol.Deliver(rng, b, 0) {
			hits++
		}
	}
	got := float64(hits) / trials
	if got < 0.25 || got > 0.35 {
		t.Fatalf("Bernoulli(0.3) hit rate = %v", got)
	}
	if pol.Name() == "" || (sched.Always{}).Name() == "" || (sched.Never{}).Name() == "" {
		t.Fatal("empty policy name")
	}
}
