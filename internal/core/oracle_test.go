package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"amac/internal/check"
	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// chaos wraps one node's MMB automaton and breaks the MMB conditions on
// purpose, drawing from a private seeded stream so the wrapped automaton's
// own draws are untouched. Around each callback it may re-deliver a message
// it saw delivered, deliver one of the run's messages (early, or again), or
// emit an arrive of one. Unless own is set it also emits arrives and
// delivers of payloads that are not messages, of IDs outside 0..k−1 and of
// messages with another origin.
type chaos struct {
	inner mac.Automaton
	rng   *rand.Rand
	p     float64 // chance of one misbehaviour per callback
	own   bool
	n     int
	msgs  []core.Msg    // the run's messages
	seen  []mac.Payload // payloads delivered at this node so far
}

// chaosFleet wraps fleet for a run of msgs. Node v's stream is keyed by
// (seed, v), so a run's misbehaviour is a pure function of its seed.
func chaosFleet(fleet []mac.Automaton, msgs []core.Msg, p float64, own bool, seed int64) []mac.Automaton {
	out := make([]mac.Automaton, len(fleet))
	for v, a := range fleet {
		out[v] = &chaos{inner: a, rng: rand.New(rand.NewSource(seed*7919 + int64(v))),
			p: p, own: own, n: len(fleet), msgs: msgs}
	}
	return out
}

// chaosCtx is the context the wrapped automaton sees: the node's own, with
// its delivers recorded for re-delivery.
type chaosCtx struct {
	mac.EnhancedContext
	c *chaos
}

func (x chaosCtx) Emit(kind string, p mac.Payload) { x.c.emit(x.EnhancedContext, kind, p) }

func (c *chaos) wrap(ctx mac.Context) chaosCtx {
	return chaosCtx{ctx.(mac.EnhancedContext), c}
}

func (c *chaos) emit(ctx mac.Context, kind string, p mac.Payload) {
	if kind == core.DeliverKind {
		c.seen = append(c.seen, p)
	}
	ctx.Emit(kind, p)
}

// act misbehaves once with probability p.
func (c *chaos) act(ctx mac.Context) {
	if c.rng.Float64() >= c.p {
		return
	}
	kind := core.DeliverKind
	if c.rng.Intn(2) == 0 {
		kind = "arrive"
	}
	m := c.msgs[c.rng.Intn(len(c.msgs))]
	actions := 3
	if !c.own {
		actions = 6
	}
	switch c.rng.Intn(actions) {
	case 0: // re-deliver
		if len(c.seen) == 0 {
			return
		}
		c.emit(ctx, core.DeliverKind, c.seen[c.rng.Intn(len(c.seen))])
	case 1: // deliver one of the run's messages, early or again
		c.emit(ctx, core.DeliverKind, m.Payload())
	case 2: // arrive one of the run's messages, early or again
		c.emit(ctx, "arrive", m.Payload())
	case 3: // a payload that is not a message
		c.emit(ctx, kind, mac.Int(c.rng.Int63n(4)))
	case 4: // an ID outside 0..k−1
		id := len(c.msgs) + c.rng.Intn(3)
		if c.rng.Intn(2) == 0 {
			id = -1 - c.rng.Intn(3)
		}
		c.emit(ctx, kind, core.Msg{ID: id, Origin: graph.NodeID(c.rng.Intn(c.n))}.Payload())
	case 5: // a message of the run under another origin
		m.Origin = (m.Origin + 1 + graph.NodeID(c.rng.Intn(c.n-1))) % graph.NodeID(c.n)
		c.emit(ctx, kind, m.Payload())
	}
}

func (c *chaos) Wakeup(ctx mac.Context) {
	c.inner.Wakeup(c.wrap(ctx))
	c.act(ctx)
}

func (c *chaos) Recv(ctx mac.Context, m mac.Message) {
	c.act(ctx)
	c.inner.Recv(c.wrap(ctx), m)
}

func (c *chaos) Acked(ctx mac.Context, m mac.Message) {
	c.inner.Acked(c.wrap(ctx), m)
	c.act(ctx)
}

func (c *chaos) Arrive(ctx mac.Context, p mac.Payload) {
	c.inner.(mac.Arriver).Arrive(c.wrap(ctx), p)
	c.act(ctx)
}

func (c *chaos) Timer(ctx mac.EnhancedContext) {
	c.inner.(mac.TimerHandler).Timer(c.wrap(ctx))
	c.act(ctx)
}

// oracleCase is one network, algorithm, scheduler and workload of the
// oracle tests.
type oracleCase struct {
	name     string
	built    *topology.Built
	alg      string
	sched    string
	params   topology.Params
	workload func(n int, seed int64) *core.Workload
}

func mustBuild(t *testing.T, name string, p topology.Params, seed int64) *topology.Built {
	t.Helper()
	b, err := topology.BuildSeeded(name, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// spread injects k messages at time zero, at nodes spread evenly over n.
func spread(k int) func(n int, _ int64) *core.Workload {
	return func(n int, _ int64) *core.Workload {
		origins := make([]graph.NodeID, k)
		for i := range origins {
			origins[i] = graph.NodeID(i * n / k)
		}
		return core.FromAssignment(core.Singleton(n, origins))
	}
}

// online draws k arrivals over the first 300 ticks from the run's seed.
func online(k int) func(n int, seed int64) *core.Workload {
	return func(n int, seed int64) *core.Workload { return core.PoissonWorkload(n, k, 300, seed) }
}

// chaosRun executes one seed of oc with a chaos fleet under opts. A chaos
// chance of 0 runs the plain fleet. A streamed run writes to a file in dir.
func chaosRun(t *testing.T, oc oracleCase, seed int64, p float64, own bool, opts core.RunOptions, dir string) *core.Result {
	t.Helper()
	d := oc.built.Dual
	alg, _ := core.LookupAlgorithm(oc.alg)
	var w *core.Workload
	if art, ok := oc.built.Artifact.(*topology.ParallelLinesC); ok {
		// The adversary's construction: one message at each line's head.
		a := make(core.Assignment, d.N())
		a[art.A(1)] = []core.Msg{{ID: 0, Origin: art.A(1)}}
		a[art.B(1)] = []core.Msg{{ID: 1, Origin: art.B(1)}}
		w = core.FromAssignment(a)
	} else {
		w = oc.workload(d.N(), seed)
	}
	var msgs []core.Msg
	env := sched.Env{Dual: d, Artifact: oc.built.Artifact, Fprog: 10, Fack: 200}
	for _, ar := range w.Arrivals() {
		msgs = append(msgs, ar.Msg)
		env.Payloads = append(env.Payloads, ar.Msg.Payload())
	}
	fleet, err := alg.NewFleet(d, w.K(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0 {
		fleet = chaosFleet(fleet, msgs, p, own, seed)
	}
	newSched := func() mac.Scheduler {
		s, err := sched.Build(oc.sched, env, oc.params)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cfg := core.RunConfig{
		Dual: d, Fack: 200, Fprog: 10, Scheduler: newSched(), Mode: alg.Mode,
		Seed: seed, Workload: w, Automata: fleet, StepLimit: alg.StepLimit,
		HaltOnCompletion: true, Options: opts,
	}
	if alg.Horizon != nil {
		cfg.Horizon = alg.Horizon(d, w.K(), cfg.Fprog, nil)
	}
	if opts.Shards >= 1 {
		cfg.NewScheduler = newSched
	}
	var f *os.File
	var tw *sim.TraceWriter
	if opts.Trace == core.TraceStream {
		if f, err = os.Create(filepath.Join(dir, fmt.Sprintf("%s-s%d.amtr", oc.name, seed))); err != nil {
			t.Fatal(err)
		}
		tw = sim.NewTraceWriter(f)
		cfg.Options.Sink = tw
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", oc.name, seed, err)
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// A pattern reduces one wording of a violation to its rule, node and
// message (the named groups node and msg).
type pattern struct {
	rule string
	re   *regexp.Regexp
}

// The watcher's wordings of the violations the run's own messages can
// cause, and check.MMB's, as "property: detail".
var (
	watcherPatterns = []pattern{
		{"arrived twice", regexp.MustCompile(`^duplicate arrive of (?P<msg>\S+) at node (?P<node>\d+)$`)},
		{"delivered twice", regexp.MustCompile(`^duplicate deliver of (?P<msg>\S+) at node (?P<node>\d+)$`)},
		{"delivered before its arrive", regexp.MustCompile(`^deliver of (?P<msg>\S+) at node (?P<node>\d+) before any arrive$`)},
	}
	referencePatterns = []pattern{
		{"arrived twice", regexp.MustCompile(`^MMB well-formedness: message (?P<msg>\S+) arrived twice \(first \S+, again \S+ at node (?P<node>\d+)\)$`)},
		{"delivered twice", regexp.MustCompile(`^MMB delivery uniqueness: node (?P<node>\d+) delivered (?P<msg>\S+) twice \(`)},
		{"delivered before its arrive", regexp.MustCompile(`^MMB delivery causality: node (?P<node>\d+) delivered (?P<msg>\S+) before any arrive$`)},
	}
)

// entries reduces each text to "rule: node N, message" by the first
// pattern it matches, failing on a text that matches none.
func entries(t *testing.T, ps []pattern, texts []string) []string {
	t.Helper()
	var out []string
next:
	for _, v := range texts {
		for _, p := range ps {
			if m := p.re.FindStringSubmatch(v); m != nil {
				out = append(out, fmt.Sprintf("%s: node %s, %s", p.rule, m[p.re.SubexpIndex("node")], m[p.re.SubexpIndex("msg")]))
				continue next
			}
		}
		t.Fatalf("violation %q matches no pattern", v)
	}
	return out
}

func checkMMB(res *core.Result) *check.Report {
	rep := &check.Report{}
	check.MMB(rep, res.Trace.Events(), check.MMBParams{DeliverKind: core.DeliverKind})
	return rep
}

// oracleCases covers line, ring, grid and rgg duals under every registered
// scheduler: BMMB with online arrivals under sync, random and contention,
// FMMB under slot, and BMMB on the adversary's own parallel-lines network.
func oracleCases(t *testing.T) []oracleCase {
	duals := []*topology.Built{
		mustBuild(t, "line", topology.Params{"n": 12}, 1),
		mustBuild(t, "ring", topology.Params{"n": 12}, 1),
		mustBuild(t, "grid", topology.Params{"rows": 4, "cols": 4}, 1),
		mustBuild(t, "rgg", topology.Params{"n": 20}, 3),
	}
	rel := topology.Params{"rel": 0.5}
	var cases []oracleCase
	for _, b := range duals {
		for _, s := range []string{"sync", "random", "contention"} {
			cases = append(cases, oracleCase{b.Dual.Name + "/bmmb/" + s, b, "bmmb", s, rel, online(3)})
		}
		cases = append(cases, oracleCase{b.Dual.Name + "/fmmb/slot", b, "fmmb", "slot", nil, spread(2)})
	}
	pl := mustBuild(t, "parallel-lines", topology.Params{"d": 4}, 1)
	cases = append(cases, oracleCase{"parallel-lines/bmmb/adversary", pl, "bmmb", "adversary", nil, nil})
	for _, oc := range cases {
		if !slices.Contains(sched.Names(), oc.sched) {
			t.Fatalf("scheduler %q is not registered", oc.sched)
		}
	}
	for _, s := range sched.Names() {
		if !slices.ContainsFunc(cases, func(oc oracleCase) bool { return oc.sched == s }) {
			t.Fatalf("registered scheduler %q has no oracle case", s)
		}
	}
	return cases
}

// TestWatcherMatchesCheckMMB holds the runner's online watcher, the one MMB
// oracle, to check.MMB's replay of the recorded trace over seeded chaos
// fleets. Where the chaos uses only the run's own messages, the two report
// the same violations as (rule, node, message), in order. Where it also
// emits other payloads, other IDs and other origins — on the single-engine
// executor and at Shards 2 on a multi-component pods network — every run
// check.MMB flags is flagged by the watcher, and no run panics.
func TestWatcherMatchesCheckMMB(t *testing.T) {
	cases := oracleCases(t)
	const seeds = 27
	runs, flagged := 0, 0
	kinds := map[string]bool{}
	for _, oc := range cases {
		for seed := int64(1); seed <= seeds; seed++ {
			p := []float64{0, 0.02, 0.1}[seed%3]
			res := chaosRun(t, oc, seed, p, true, core.RunOptions{}, "")
			var reference []string
			for _, v := range checkMMB(res).Violations {
				reference = append(reference, v.Property+": "+v.Detail)
			}
			want := entries(t, referencePatterns, reference)
			got := entries(t, watcherPatterns, res.MMBViolations)
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: watcher %q, check.MMB %q", oc.name, seed, got, want)
			}
			for _, e := range got {
				rule, _, _ := strings.Cut(e, ":")
				kinds[rule] = true
			}
			runs++
			if len(got) > 0 {
				flagged++
			}
		}
	}
	if len(kinds) != len(watcherPatterns) || flagged < runs/3 {
		t.Fatalf("own-message chaos too tame: %d of %d runs flagged, rules %v", flagged, runs, kinds)
	}

	pods := mustBuild(t, "pods", topology.Params{"n": 64, "k": 4, "r": 2, "p": 0.5}, 7)
	wide := append(cases,
		oracleCase{"pods/bmmb/sync", pods, "bmmb", "sync", topology.Params{"rel": 0.5}, spread(4)},
		oracleCase{"pods/bmmb/random", pods, "bmmb", "random", topology.Params{"rel": 0.5}, online(4)})
	flagged = 0
	for _, oc := range wide {
		shardings := []int{0}
		if oc.built == pods {
			shardings = []int{0, 2}
		}
		for _, shards := range shardings {
			for seed := int64(1); seed <= seeds; seed++ {
				res := chaosRun(t, oc, seed, []float64{0.02, 0.1}[seed%2], false, core.RunOptions{Shards: shards}, "")
				runs++
				if len(res.MMBViolations) > 0 {
					flagged++
				}
				if rep := checkMMB(res); !rep.OK() && len(res.MMBViolations) == 0 {
					t.Fatalf("%s shards=%d seed %d: check.MMB flags %v, the watcher nothing", oc.name, shards, seed, rep.Violations)
				}
			}
		}
	}
	if flagged == 0 {
		t.Fatal("unrestricted chaos flagged no run")
	}
	if runs < 1000 {
		t.Fatalf("%d runs, want at least 1000", runs)
	}
}

// TestCheckIsTraceModeIndependent pins that checking reads nothing off the
// trace: a checked run under trace memory, stream and off reports the same
// model violations, MMB violations and outcome, for plain fleets and for
// chaos fleets that break the MMB conditions, on the single-engine and the
// sharded executor.
func TestCheckIsTraceModeIndependent(t *testing.T) {
	crosstalk := mustBuild(t, "grid-crosstalk", topology.Params{"rows": 20, "cols": 20, "r": 2, "p": 0.5}, 11)
	pods := mustBuild(t, "pods", topology.Params{"n": 4000, "k": 8, "r": 2, "p": 0.5}, 535353)
	grid := mustBuild(t, "grid", topology.Params{"rows": 6, "cols": 6}, 1)
	rel := topology.Params{"rel": 0.5}
	dir := t.TempDir()
	for _, tc := range []struct {
		oc     oracleCase
		shards int
	}{
		{oracleCase{"grid-crosstalk", crosstalk, "bmmb", "contention", rel, spread(8)}, 0},
		{oracleCase{"pods", pods, "bmmb", "sync", rel, spread(8)}, 0},
		{oracleCase{"pods", pods, "bmmb", "sync", rel, spread(8)}, 2},
		{oracleCase{"grid-fmmb", grid, "fmmb", "slot", nil, spread(3)}, 0},
	} {
		for _, p := range []float64{0, 0.01} {
			name := fmt.Sprintf("%s/shards=%d/chaos=%v", tc.oc.name, tc.shards, p)
			outcome := func(tm core.TraceMode) string {
				res := chaosRun(t, tc.oc, 3, p, false, core.RunOptions{Trace: tm, Check: true, Shards: tc.shards}, dir)
				if res.Report == nil {
					t.Fatalf("%s trace=%s: checked run has no report", name, tm)
				}
				return fmt.Sprintf("model %v\nmmb %q\nsolved %v at %d, %d delivered, %d steps, %d broadcasts",
					res.Report.Violations, res.MMBViolations, res.Solved, res.CompletionTime,
					res.Delivered, res.Steps, res.Broadcasts)
			}
			want := outcome(core.TraceMemory)
			if p > 0 && !strings.Contains(want, `mmb ["`) {
				t.Fatalf("%s: chaos fleet broke no MMB condition:\n%s", name, want)
			}
			for _, tm := range []core.TraceMode{core.TraceStream, core.TraceOff} {
				if got := outcome(tm); got != want {
					t.Fatalf("%s: trace=%s diverges from trace=memory:\n%s\nwant\n%s", name, tm, got, want)
				}
			}
		}
	}
}
