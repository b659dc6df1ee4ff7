package check

import (
	"math/rand"
	"slices"
	"testing"

	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// byteReader hands out a fuzz input one byte at a time, then zeros.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeHistory turns arbitrary bytes into a bounded checker input: a line,
// ring, star or grid dual with n ≤ 16, the model constants, and at most 32
// instances with their status, termination and receives. Every instance
// row is 0..n−1, so receives may go to the sender or across non-edges;
// times are small, so terms collide and windows overlap, and terminations
// and receives may fall before the bcast. Fprog may even be negative, which
// pins the comparisons a valid run never reaches as well.
func decodeHistory(data []byte) (*topology.Dual, []*mac.Instance, Params) {
	r := byteReader(data)
	var d *topology.Dual
	switch r.next() % 4 {
	case 0:
		d = topology.Line(1 + r.next()%16)
	case 1:
		d = topology.Ring(3 + r.next()%14)
	case 2:
		d = topology.Star(2 + r.next()%15)
	default:
		rows := 1 + r.next()%4
		d = topology.Grid(rows, 1+r.next()%(16/rows))
	}
	n := d.N()
	row := make([]mac.NodeID, n)
	for i := range row {
		row[i] = mac.NodeID(i)
	}
	p := Params{
		Fack:     sim.Time(r.next() % 64),
		Fprog:    sim.Time(r.next()%40 - 8),
		EpsAbort: sim.Time(r.next() % 8),
		End:      sim.Time(2 * r.next()),
	}
	insts := make([]*mac.Instance, r.next()%33)
	for id := range insts {
		start := sim.Time(r.next())
		b := mac.NewInstance(mac.InstanceID(id), mac.NodeID(r.next()%n), mac.Payload{}, start, row, 0)
		if st := mac.Status(r.next() % 3); st != mac.Active {
			b.Term = st
			b.TermAt = max(0, start+sim.Time(r.next())-32)
		}
		for range r.next() % (n + 1) {
			to := mac.NodeID(r.next() % n)
			at := max(0, start+sim.Time(r.next())-16)
			if !b.WasDelivered(to) {
				b.MarkDelivered(to, at, false)
			}
		}
		insts[id] = b
	}
	return d, insts, p
}

// matchReference fails t unless every rewritten checker, and All, reports
// exactly the reference's violations in the reference's order.
func matchReference(t *testing.T, d *topology.Dual, insts []*mac.Instance, p Params) []Violation {
	t.Helper()
	type checker func(*Report, *topology.Dual, []*mac.Instance, Params)
	for _, c := range []struct {
		name      string
		got, want checker
	}{
		{"ReceiveCorrectness", ReceiveCorrectness, refReceiveCorrectness},
		{"AckCorrectness", AckCorrectness, refAckCorrectness},
		{"ProgressBound", ProgressBound, refProgressBound},
	} {
		got, want := &Report{}, &Report{}
		c.got(got, d, insts, p)
		c.want(want, d, insts, p)
		if !slices.Equal(got.Violations, want.Violations) {
			t.Fatalf("%s diverged from the reference on %s, %d instances, %+v:\ngot  %d: %v\nwant %d: %v",
				c.name, d.Name, len(insts), p, len(got.Violations), got.Violations,
				len(want.Violations), want.Violations)
		}
	}
	got, want := All(d, insts, p), refAll(d, insts, p)
	if !slices.Equal(got.Violations, want.Violations) {
		t.Fatalf("All diverged from the reference on %s: got %v, want %v", d.Name, got.Violations, want.Violations)
	}
	return got.Violations
}

// TestAllMatchesReference holds the flat-table checkers to the reference
// ones, entry for entry, on seeded random histories that exercise every
// corner the engine never produces, and on real executions under every
// registered scheduler.
func TestAllMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const histories = 3000
	var violating, progress, nonEdge, self, termBeforeStart, equalTerms, eps int
	var statuses [3]int
	data := make([]byte, 0, 1024)
	for range histories {
		data = data[:rng.Intn(1024)]
		rng.Read(data)
		d, insts, p := decodeHistory(data)
		if vs := matchReference(t, d, insts, p); len(vs) > 0 {
			violating++
			if slices.ContainsFunc(vs, isProgress) {
				progress++
			}
		}
		if p.EpsAbort > 0 {
			eps++
		}
		terms := map[sim.Time]bool{}
		for _, b := range insts {
			statuses[b.Term]++
			if b.Terminated() && b.TermAt < b.Start {
				termBeforeStart++
			}
			if terms[spanEnd(b, p)] {
				equalTerms++
			}
			terms[spanEnd(b, p)] = true
			for to := range b.Receivers() {
				switch {
				case to == b.Sender:
					self++
				case !d.GPrime.HasEdge(b.Sender, to):
					nonEdge++
				}
			}
		}
	}
	t.Logf("%d/%d histories violating, %d the progress bound; %d non-edge and %d self receives, %d terminations before start, %d equal terms, statuses %v, EpsAbort > 0 in %d",
		violating, histories, progress, nonEdge, self, termBeforeStart, equalTerms, statuses, eps)
	if violating < histories/2 || progress < histories/2 {
		t.Errorf("only %d of %d histories violate anything, %d the progress bound", violating, histories, progress)
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"non-edge receives", nonEdge}, {"self receives", self},
		{"terminations before start", termBeforeStart}, {"equal terms", equalTerms},
		{"active instances", statuses[mac.Active]}, {"acked instances", statuses[mac.Acked]},
		{"aborted instances", statuses[mac.Aborted]}, {"EpsAbort > 0", eps},
	} {
		if c.n == 0 {
			t.Errorf("no history has %s", c.what)
		}
	}

	for _, name := range sched.Names() {
		t.Run(name, func(t *testing.T) {
			progress := 0
			for seed := range int64(6) {
				d, insts, p := runExecution(t, name, seed)
				matchReference(t, d, insts, p)
				// Tighter bounds than the run honored turn the real
				// execution into a violating one.
				p.Fack, p.Fprog = p.Fack/4, p.Fprog/3
				if slices.ContainsFunc(matchReference(t, d, insts, p), isProgress) {
					progress++
				}
			}
			if progress == 0 {
				t.Error("no execution violates the tightened progress bound")
			}
		})
	}
}

func isProgress(v Violation) bool { return v.Property == "progress bound" }

// FuzzAllMatchesReference is TestAllMatchesReference's random histories
// driven by the fuzzer.
func FuzzAllMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, insts, p := decodeHistory(data)
		matchReference(t, d, insts, p)
	})
}

// execNode broadcasts at random: at wakeup and after each ack it may
// broadcast again, a receive may queue one more, and in the enhanced model
// a receive sometimes aborts the pending broadcast.
type execNode struct {
	budget   int
	wantOne  bool
	enhanced bool
}

func (x *execNode) maybeSend(ctx mac.Context) {
	if x.budget <= 0 || ctx.Pending() {
		return
	}
	if x.wantOne || ctx.Rand().Float64() < 0.6 {
		x.wantOne = false
		x.budget--
		ctx.Bcast(sim.Payload{Kind: sim.PayloadInt, A: int64(ctx.Rand().Intn(2))})
	}
}

func (x *execNode) Wakeup(ctx mac.Context) { x.maybeSend(ctx) }

func (x *execNode) Recv(ctx mac.Context, _ mac.Message) {
	if x.enhanced && ctx.Pending() && ctx.Rand().Float64() < 0.1 {
		ctx.(mac.EnhancedContext).Abort()
	}
	if ctx.Rand().Float64() < 0.3 {
		x.wantOne = true
	}
	x.maybeSend(ctx)
}

func (x *execNode) Acked(ctx mac.Context, _ mac.Message) { x.maybeSend(ctx) }

// runExecution runs random traffic under the named scheduler on a small
// grey-zone network, built as the scheduler fuzz tests build theirs: a
// line plus random chords with an r-restricted G′, or the Figure 2 network
// for the adversary, which is defined against it.
func runExecution(t *testing.T, name string, seed int64) (*topology.Dual, []*mac.Instance, Params) {
	t.Helper()
	const fprog, fack, eps = 10, 200, 3
	rng := rand.New(rand.NewSource(seed))
	env := sched.Env{
		Payloads: []sim.Payload{{Kind: sim.PayloadInt, A: 0}, {Kind: sim.PayloadInt, A: 1}},
		Fprog:    fprog,
		Fack:     fack,
	}
	mode := mac.Standard
	var params topology.Params
	switch name {
	case "sync", "random", "contention":
		params = topology.Params{"rel": 0.5}
	case "slot":
		mode = mac.Enhanced
		params = topology.Params{"grey-p": 0.5}
	case "adversary":
		c := topology.NewParallelLinesC(3 + rng.Intn(4))
		env.Dual, env.Artifact = c.Dual, c
	default:
		t.Fatalf("no execution for registered scheduler %q — extend runExecution", name)
	}
	if env.Dual == nil {
		n := 5 + rng.Intn(15)
		edges := topology.Line(n).G.Edges()
		for range n / 2 {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				edges = append(edges, [2]mac.NodeID{mac.NodeID(u), mac.NodeID(v)})
			}
		}
		base := new(graph.Graph)
		base.SetEdges(n, edges)
		env.Dual = topology.RRestricted(base, 1+rng.Intn(4), rng.Float64(), rng, "grey")
	}
	s, err := sched.Build(name, env, params)
	if err != nil {
		t.Fatal(err)
	}
	autos := make([]mac.Automaton, env.Dual.N())
	for i := range autos {
		autos[i] = &execNode{budget: 1 + rng.Intn(5), enhanced: mode == mac.Enhanced}
	}
	eng := mac.NewEngine(mac.Config{
		Dual:      env.Dual,
		Fack:      fack,
		Fprog:     fprog,
		Scheduler: s,
		Mode:      mode,
		Seed:      seed,
		EpsAbort:  eps,
	}, autos)
	eng.Start()
	eng.Sim().SetStepLimit(2_000_000)
	eng.Run()
	if len(eng.Instances()) == 0 {
		t.Fatalf("%s seed %d: no broadcasts", name, seed)
	}
	return env.Dual, eng.Instances(), Params{Fack: fack, Fprog: fprog, EpsAbort: eps, End: eng.Sim().Now()}
}
