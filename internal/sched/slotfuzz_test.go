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

// lingerNode broadcasts at wakeup, after each ack and now and then on a
// receive, until its budget is spent, and never aborts: its instances
// linger from slot to slot until the slot scheduler serves every reliable
// neighbor or force-completes them at their Fack deadline, and a broadcast
// made on a receive inside a slot handler re-arms that slot's tick.
type lingerNode struct{ budget int }

func (l *lingerNode) send(ctx mac.Context) {
	if l.budget > 0 && !ctx.Pending() {
		l.budget--
		ctx.Bcast(sim.Payload{Kind: sim.PayloadInt, A: int64(ctx.ID()), B: int64(l.budget)})
	}
}

func (l *lingerNode) Wakeup(ctx mac.Context) {
	if ctx.Rand().Intn(3) > 0 {
		l.send(ctx)
	}
}

func (l *lingerNode) Recv(ctx mac.Context, _ mac.Message) {
	if ctx.Rand().Intn(4) == 0 {
		l.send(ctx)
	}
}

func (l *lingerNode) Acked(ctx mac.Context, _ mac.Message) { l.send(ctx) }

// decodeSlotInput decodes a fuzz input into a dual and the slot
// scheduler's parameters. Byte 0 gives n = 2 + b mod 63 (at most 64 nodes),
// byte 1 Fprog = 2 + b mod 9, byte 2 Fack = Fprog + b mod 64, byte 3 GreyP
// (b mod 4 selects −1, so 0; the default 0.5; 0.25; 1) and byte 4 each
// node's broadcast budget, 1 + b mod 4. Each later byte triple is an edge
// {u, v} (mod n, self-loops skipped), reliable when the third byte is even
// and grey (G′ only) when it is odd. Past about 32 edges the G′ arcs span
// more than one reliability word, so some rows cross a word boundary.
func decodeSlotInput(data []byte) (d *topology.Dual, fprog, fack sim.Time, greyP float64, budget int) {
	var head [5]byte
	copy(head[:], data)
	n := 2 + int(head[0])%63
	fprog = 2 + sim.Time(head[1]%9)
	fack = fprog + sim.Time(head[2]%64)
	greyP = [...]float64{-1, 0, 0.25, 1}[head[3]%4]
	budget = 1 + int(head[4]%4)
	var rel, all [][2]graph.NodeID
	for i := 5; i+2 < len(data); i += 3 {
		u, v := graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n)
		if u == v {
			continue
		}
		if data[i+2]&1 == 0 {
			rel = append(rel, [2]graph.NodeID{u, v})
		}
		all = append(all, [2]graph.NodeID{u, v})
	}
	g, gp := new(graph.Graph), new(graph.Graph)
	g.SetEdges(n, rel)
	gp.SetEdges(n, all)
	d, err := topology.NewDual(g, gp, "fuzz")
	if err != nil {
		panic(err) // G ⊆ G′ by construction
	}
	return d, fprog, fack, greyP, budget
}

// FuzzSlotMatchesReference holds the slot scheduler to refSlot, its
// pre-one-pass copy, on decoded duals: with never-aborting automata, so
// instances linger into the force-complete pass and receivers see
// grey-only contention, both runs must produce the same trace — every
// delivery as (instance, receiver, time), every broadcast and ack — end at
// the same time, and leave the scheduler's random stream at the same
// position. The run must also satisfy the model (check.All).
func FuzzSlotMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, fprog, fack, greyP, budget := decodeSlotInput(data)
		type outcome struct {
			trace string
			end   sim.Time
			next  int64 // the scheduler stream's next draw
		}
		run := func(s mac.Scheduler) (outcome, *mac.Engine) {
			var tr sim.Trace
			autos := make([]mac.Automaton, d.N())
			for i := range autos {
				autos[i] = &lingerNode{budget: budget}
			}
			eng := mac.NewEngine(mac.Config{
				Dual:      d,
				Fack:      fack,
				Fprog:     fprog,
				Scheduler: s,
				Seed:      int64(len(data)),
				Trace:     &tr,
			}, autos)
			eng.Start()
			eng.Sim().SetStepLimit(1 << 20)
			eng.Run()
			return outcome{tr.String(), eng.Sim().Now(), eng.Rand().Int63()}, eng
		}
		got, eng := run(&sched.Slot{GreyP: greyP})
		want, _ := run(&refSlot{GreyP: greyP})
		if got.trace != want.trace {
			t.Fatalf("trace differs from the reference:\n got %s\nwant %s", got.trace, want.trace)
		}
		if got.end != want.end || got.next != want.next {
			t.Fatalf("run ends at %v with next draw %d, reference at %v with %d", got.end, got.next, want.end, want.next)
		}
		rep := check.All(d, eng.Instances(), check.Params{Fack: fack, Fprog: fprog, End: got.end})
		if !rep.OK() {
			t.Fatalf("slot scheduler violates the model: %v", rep.Violations[0])
		}
	})
}
