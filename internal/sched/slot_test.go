package sched_test

import (
	"testing"

	"amac/internal/check"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// roundNode broadcasts a payload at the start of each of its first `rounds`
// Fprog-rounds and aborts at round end, mimicking FMMB's lock-step use of
// the enhanced layer.
type roundNode struct {
	rounds int
	round  int
	acked  int
	recvd  []mac.Message
	quiet  bool // if true, never broadcasts (pure receiver)
}

func (r *roundNode) Wakeup(ctx mac.Context) {
	r.start(ctx.(mac.EnhancedContext))
}

func (r *roundNode) start(ec mac.EnhancedContext) {
	if r.round >= r.rounds {
		return
	}
	ec.SetTimer(ec.Fprog())
	if !r.quiet {
		ec.Bcast(sim.Payload{Kind: sim.PayloadInt, A: int64(ec.ID()), B: int64(r.round)})
	}
}

func (r *roundNode) Timer(ec mac.EnhancedContext) {
	ec.Abort()
	r.round++
	r.start(ec)
}

func (r *roundNode) Recv(_ mac.Context, m mac.Message)  { r.recvd = append(r.recvd, m) }
func (r *roundNode) Acked(_ mac.Context, _ mac.Message) { r.acked++ }

func runSlot(t *testing.T, d *topology.Dual, autos []mac.Automaton, greyP float64, seed int64) *mac.Engine {
	t.Helper()
	eng := mac.NewEngine(mac.Config{
		Dual:      d,
		Fack:      fack,
		Fprog:     fprog,
		Scheduler: &sched.Slot{GreyP: greyP},
		Mode:      mac.Enhanced,
		Seed:      seed,
	}, autos)
	eng.Start()
	eng.Sim().SetStepLimit(1_000_000)
	eng.Run()
	rep := check.All(d, eng.Instances(), check.Params{
		Fack: fack, Fprog: fprog, End: eng.Sim().Now(),
	})
	if !rep.OK() {
		t.Fatalf("slot scheduler violates the model: %v", rep.Violations[0])
	}
	return eng
}

func TestSlotSoloBroadcasterReachesAllNeighbors(t *testing.T) {
	// One broadcaster, everyone else quiet: every G-neighbor must receive
	// within the slot and the instance must be acked (no collision).
	d := topology.Star(6)
	autos := make([]mac.Automaton, 6)
	autos[0] = &roundNode{rounds: 3}
	for i := 1; i < 6; i++ {
		autos[i] = &roundNode{quiet: true, rounds: 3}
	}
	eng := runSlot(t, d, autos, 0, 1)
	insts := eng.Instances()
	if len(insts) != 3 {
		t.Fatalf("instances = %d, want 3", len(insts))
	}
	for _, b := range insts {
		if b.Term != mac.Acked {
			t.Fatalf("solo instance %d not acked (%v)", b.ID, b.Term)
		}
		if b.NumDelivered() != 5 {
			t.Fatalf("solo instance %d delivered to %d, want 5", b.ID, b.NumDelivered())
		}
		// Delivery happens within the slot the broadcast started in.
		slotEnd := (b.Start/fprog+1)*fprog - 1
		for to, at := range b.Receivers() {
			if at > slotEnd {
				t.Fatalf("delivery to %d at %v after slot end %v", to, at, slotEnd)
			}
		}
	}
}

func TestSlotCollisionDeliversExactlyOne(t *testing.T) {
	// Two broadcasters adjacent to the same receiver: the receiver gets
	// exactly one message per slot (progress bound satisfied, collision
	// modeled).
	d := topology.Line(3) // 1 hears both 0 and 2
	autos := []mac.Automaton{
		&roundNode{rounds: 4},
		&roundNode{quiet: true, rounds: 4},
		&roundNode{rounds: 4},
	}
	runSlot(t, d, autos, 0, 2)
	mid := autos[1].(*roundNode)
	if len(mid.recvd) != 4 {
		t.Fatalf("middle node received %d messages over 4 rounds, want exactly 4", len(mid.recvd))
	}
	perSlot := map[sim.Time]int{}
	for _, b := range runSlot(t, d, autos2(), 0, 2).Instances() {
		if at, ok := b.DeliveredAt(1); ok {
			perSlot[at/fprog]++
		}
	}
	for slot, n := range perSlot {
		if n > 1 {
			t.Fatalf("slot %d delivered %d messages to the middle node", slot, n)
		}
	}
}

func autos2() []mac.Automaton {
	return []mac.Automaton{
		&roundNode{rounds: 4},
		&roundNode{quiet: true, rounds: 4},
		&roundNode{rounds: 4},
	}
}

func TestSlotCollidedBroadcastsNotAcked(t *testing.T) {
	// When both endpoints of a 3-line broadcast every round, the middle
	// receiver gets only one of the two: the loser cannot be acked in that
	// slot and is aborted by its sender.
	d := topology.Line(3)
	autos := autos2()
	eng := runSlot(t, d, autos, 0, 3)
	acked, aborted := 0, 0
	for _, b := range eng.Instances() {
		switch b.Term {
		case mac.Acked:
			acked++
		case mac.Aborted:
			aborted++
		default:
			t.Fatalf("instance %d left active", b.ID)
		}
	}
	if acked+aborted != 8 {
		t.Fatalf("acked+aborted = %d, want 8", acked+aborted)
	}
	if aborted == 0 {
		t.Fatal("collisions should abort at least one broadcast")
	}
}

func TestSlotGreyZoneDelivery(t *testing.T) {
	// Two nodes connected only in G′: with GreyP≈1 deliveries happen; with
	// GreyP negative (never), nothing crosses the grey edge.
	dual := greyPair()
	autosA := []mac.Automaton{&roundNode{rounds: 6}, &roundNode{quiet: true, rounds: 6}}
	eng := runSlot(t, dual, autosA, 0.999, 5)
	got := 0
	for _, b := range eng.Instances() {
		got += b.NumDelivered()
	}
	if got == 0 {
		t.Fatal("GreyP≈1 delivered nothing over a grey edge")
	}
	autosB := []mac.Automaton{&roundNode{rounds: 6}, &roundNode{quiet: true, rounds: 6}}
	eng = runSlot(t, greyPair(), autosB, -1, 5)
	for _, b := range eng.Instances() {
		if b.NumDelivered() != 0 {
			t.Fatal("GreyP=never delivered over a grey edge")
		}
	}
}

// greyPair builds two nodes joined only by an unreliable edge.
func greyPair() *topology.Dual {
	g := graph.New(2)
	gp := new(graph.Graph)
	gp.SetEdges(2, [][2]graph.NodeID{{0, 1}})
	return &topology.Dual{G: g, GPrime: gp, Name: "grey-pair"}
}

// ackChainNode broadcasts at wakeup and again from each ack, up to n
// broadcasts in all, as BMMB does while its queue is non-empty.
type ackChainNode struct{ n, sent int }

func (a *ackChainNode) Wakeup(ctx mac.Context)               { a.bcast(ctx) }
func (a *ackChainNode) Recv(mac.Context, mac.Message)        {}
func (a *ackChainNode) Acked(ctx mac.Context, _ mac.Message) { a.bcast(ctx) }

func (a *ackChainNode) bcast(ctx mac.Context) {
	if a.sent < a.n {
		a.sent++
		ctx.Bcast(mac.Int(int64(a.sent)))
	}
}

func TestSlotRearmsAtLastTickAfterHandler(t *testing.T) {
	// The slot handler acks the first broadcast at the slot's last tick,
	// and the ack re-broadcasts at that same tick. The rule pinned here: a
	// broadcast made at a slot's last tick after that slot's handler ran
	// re-arms a handler at the same tick, so it is delivered and acked
	// within that tick, not a slot later.
	d := topology.Star(4)
	autos := []mac.Automaton{&ackChainNode{n: 3}, &ackChainNode{}, &ackChainNode{}, &ackChainNode{}}
	eng := runSlot(t, d, autos, 0, 1)
	last := fprog - 1
	insts := eng.Instances()
	if len(insts) != 3 {
		t.Fatalf("instances = %d, want 3", len(insts))
	}
	for i, b := range insts {
		wantStart := last
		if i == 0 {
			wantStart = 0
		}
		if b.Start != wantStart || b.Term != mac.Acked || b.TermAt != last {
			t.Fatalf("instance %d: start %v, term %v at %v; want start %v, acked at %v",
				b.ID, b.Start, b.Term, b.TermAt, wantStart, last)
		}
		for to, at := range b.Receivers() {
			if at != last {
				t.Fatalf("instance %d reached %d at %v, want %v", b.ID, to, at, last)
			}
		}
	}
}
