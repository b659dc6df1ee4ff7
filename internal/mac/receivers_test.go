package mac_test

import (
	"math/rand"
	"testing"

	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// rcvRecord is one reception: instance, receiving node and time.
type rcvRecord struct {
	inst mac.InstanceID
	node mac.NodeID
	at   sim.Time
}

// TestReceiversMatchRcvEvents pins the delivery row as the only record of
// who received an instance and when. On a grey-zone rgg, under schedulers
// that deliver through the slot-walked reliable batch and grey batches
// (sync), scheduled single deliveries (random) and direct Deliver calls
// (contention), the (node, time) pairs Receivers yields for each instance
// must be exactly the rcv events of the trace, and NumDelivered must count
// them.
func TestReceiversMatchRcvEvents(t *testing.T) {
	d := topology.RandomGeometric(300, 8, 1.6, 0.5, rand.New(rand.NewSource(5)))
	for _, tc := range []struct {
		name  string
		sched mac.Scheduler
	}{
		{"sync", &sched.Sync{Rel: sched.Bernoulli{P: 0.5}}},
		{"random", &sched.Random{Rel: sched.Bernoulli{P: 0.5}}},
		{"contention", &sched.Contention{Rel: sched.Bernoulli{P: 0.5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tr sim.Trace
			eng := mac.NewEngine(mac.Config{Dual: d, Fack: 200, Fprog: 10, Scheduler: tc.sched, Seed: 3, Trace: &tr},
				floodFleet(d.N()))
			eng.Start()
			eng.Run()
			events := map[rcvRecord]int{}
			for _, ev := range tr.Filter("rcv") {
				events[rcvRecord{mac.InstanceID(ev.P.A), mac.NodeID(ev.Node), ev.At}]++
			}

			yielded := map[rcvRecord]int{}
			grey := 0
			for _, b := range eng.Instances() {
				n := 0
				for to, at := range b.Receivers() {
					yielded[rcvRecord{b.ID, to, at}]++
					if !d.G.HasEdge(b.Sender, to) {
						grey++
					}
					n++
				}
				if n != b.NumDelivered() {
					t.Fatalf("instance %d: Receivers yields %d nodes, NumDelivered %d", b.ID, n, b.NumDelivered())
				}
			}
			if len(events) == 0 || grey == 0 {
				t.Fatalf("degenerate run: %d rcv events, %d grey receptions", len(events), grey)
			}
			if len(yielded) != len(events) {
				t.Fatalf("Receivers yields %d receptions, the trace holds %d", len(yielded), len(events))
			}
			for r, c := range events {
				if c != 1 || yielded[r] != 1 {
					t.Fatalf("reception %+v: %d rcv events, yielded %d times", r, c, yielded[r])
				}
			}
		})
	}
}

// TestReceiversOverflowOrder pins the documented order of Receivers on a
// NewInstance record: the row in slot (ascending node) order, not mark
// order, each node with its exact time — time zero included, which the
// row's +1 bias must not read as "never delivered" — and an early break
// stops the walk.
func TestReceiversOverflowOrder(t *testing.T) {
	row := []graph.NodeID{1, 3, 5, 7}
	b := mac.NewInstance(9, 0, mac.Payload{}, 0, row, 1)
	b.MarkDelivered(5, 7, false)
	b.MarkDelivered(7, 0, false)
	b.MarkDelivered(1, 2, true)
	type mark struct {
		node mac.NodeID
		at   sim.Time
	}
	want := []mark{{1, 2}, {5, 7}, {7, 0}}
	var got []mark
	for to, at := range b.Receivers() {
		got = append(got, mark{to, at})
	}
	if len(got) != len(want) {
		t.Fatalf("Receivers yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Receivers yielded %v, want %v", got, want)
		}
	}
	if b.NumDelivered() != len(want) {
		t.Fatalf("NumDelivered = %d, want %d", b.NumDelivered(), len(want))
	}
	n := 0
	for range b.Receivers() {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("early break walked %d receivers", n)
	}
}
