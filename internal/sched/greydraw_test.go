package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// refGreyTargets is greyTargets as it was before the row's reliability
// words were scanned a word at a time: a walk over every slot of the row,
// skipping reliable ones and consulting rel, with api.Rand() fetched per
// candidate. It returns node IDs in selection order.
func refGreyTargets(api mac.API, b *mac.Instance, rel Reliability) []mac.NodeID {
	if rel == nil {
		return nil
	}
	var out []mac.NodeID
	for i, j := range b.Neighbors() {
		if b.SlotReliable(i) {
			continue
		}
		if rel.Deliver(api.Rand(), b, j) {
			out = append(out, j)
		}
	}
	return out
}

// streamAPI is the engine's scheduler surface with its own random stream,
// so a draw can be made twice — once by greyTargets, once by the reference —
// from two streams that start equal.
type streamAPI struct {
	mac.API
	rng *rand.Rand
}

func (a streamAPI) Rand() *rand.Rand { return a.rng }

// drawProbe wraps a scheduler. At every broadcast, before handing it on, it
// draws the instance's grey targets with greyTargets and with the
// reference, each on its own stream and its own copy of the policy, and
// fails unless they select the same neighbors in the same order and leave
// their streams at the same next value.
type drawProbe struct {
	t         *testing.T
	inner     mac.Scheduler
	fast, ref Reliability
	fastAPI   streamAPI
	refAPI    streamAPI
	seed      int64
	draws     int
	picked    int
}

func (p *drawProbe) Name() string { return "probe(" + p.inner.Name() + ")" }

func (p *drawProbe) Attach(api mac.API) {
	p.inner.Attach(api)
	p.fastAPI = streamAPI{api, rand.New(rand.NewSource(p.seed))}
	p.refAPI = streamAPI{api, rand.New(rand.NewSource(p.seed))}
}

func (p *drawProbe) OnBcast(b *mac.Instance) {
	got := greyTargets(p.fastAPI, b, p.fast)
	want := refGreyTargets(p.refAPI, b, p.ref)
	nbrs := b.Neighbors()
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = nbrs[got[i]] == want[i]
	}
	if !same {
		p.t.Fatalf("instance %d of node %d: drew slots %v, the reference drew nodes %v", b.ID, b.Sender, got, want)
	}
	if g, w := p.fastAPI.rng.Int63(), p.refAPI.rng.Int63(); g != w {
		p.t.Fatalf("instance %d of node %d: next draw %d, reference %d", b.ID, b.Sender, g, w)
	}
	p.draws++
	p.picked += len(got)
	p.inner.OnBcast(b)
}

func (p *drawProbe) OnAbort(b *mac.Instance) { p.inner.OnAbort(b) }

// OnTimer forwards Contention's receive slots.
func (p *drawProbe) OnTimer(obj any, a, b int64) { p.inner.(mac.TimerScheduler).OnTimer(obj, a, b) }

// burstNode broadcasts count times back to back.
type burstNode struct{ count int }

func (x *burstNode) send(ctx mac.Context) {
	if x.count > 0 && !ctx.Pending() {
		x.count--
		ctx.Bcast(mac.Int(int64(ctx.ID())))
	}
}

func (x *burstNode) Wakeup(ctx mac.Context)               { x.send(ctx) }
func (x *burstNode) Recv(mac.Context, mac.Message)        {}
func (x *burstNode) Acked(ctx mac.Context, _ mac.Message) { x.send(ctx) }

// TestGreyDrawMatchesReference holds greyTargets to the per-slot draw it
// replaced on every broadcast instance of executions over random grey-zone
// duals — sparse ones and dense ones whose rows span several reliability
// words at unaligned offsets — under the sync, random and contention
// schedulers, for every shipped policy.
func TestGreyDrawMatchesReference(t *testing.T) {
	policies := []struct {
		name string
		make func() Reliability
	}{
		{"always", func() Reliability { return Always{} }},
		{"never", func() Reliability { return Never{} }},
		{"bernoulli(0)", func() Reliability { return Bernoulli{P: 0} }},
		{"bernoulli(0.3)", func() Reliability { return Bernoulli{P: 0.3} }},
		{"bernoulli(1)", func() Reliability { return Bernoulli{P: 1} }},
		{"flaky", func() Reliability { return &Flaky{MeanUp: 30, MeanDown: 20} }},
	}
	schedulers := []struct {
		name string
		make func() mac.Scheduler
	}{
		{"sync", func() mac.Scheduler { return &Sync{Rel: Bernoulli{P: 0.5}} }},
		{"random", func() mac.Scheduler { return &Random{Rel: Bernoulli{P: 0.5}} }},
		{"contention", func() mac.Scheduler { return &Contention{Rel: Bernoulli{P: 0.5}} }},
	}
	nets := []struct {
		n          int
		side, c, p float64
	}{
		{40, 5, 1.6, 0.5},
		{120, 4, 2.5, 0.7}, // rows of 100+ arcs: several words per row
		{90, 9, 2, 1},
	}
	for ni, nc := range nets {
		d := topology.RandomGeometric(nc.n, nc.side, nc.c, nc.p, rand.New(rand.NewSource(int64(ni+1))))
		for _, sc := range schedulers {
			for _, pol := range policies {
				t.Run(fmt.Sprintf("n=%d/%s/%s", nc.n, sc.name, pol.name), func(t *testing.T) {
					probe := &drawProbe{t: t, inner: sc.make(), fast: pol.make(), ref: pol.make(), seed: int64(7 + ni)}
					autos := make([]mac.Automaton, d.N())
					for i := range autos {
						autos[i] = &burstNode{count: 3}
					}
					eng := mac.NewEngine(mac.Config{
						Dual: d, Fack: 200, Fprog: 10, Scheduler: probe, Seed: int64(ni),
					}, autos)
					eng.Start()
					eng.Sim().SetHorizon(sim.Time(100000))
					eng.Run()
					if probe.draws != 3*d.N() {
						t.Fatalf("%d draws, want one per broadcast (%d)", probe.draws, 3*d.N())
					}
					if none := pol.name == "never" || pol.name == "bernoulli(0)"; none != (probe.picked == 0) {
						t.Fatalf("%d grey targets picked in all", probe.picked)
					}
				})
			}
		}
	}
}
