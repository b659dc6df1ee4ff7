// Package amac_bench regenerates every table and figure of the paper's
// evaluation as testing.B benchmarks. Each benchmark runs the corresponding
// experiment from internal/harness and reports the headline quantity as a
// custom metric, so `go test -bench=. -benchmem` reproduces the paper's
// results table end to end. See EXPERIMENTS.md for the paper-vs-measured
// record produced by cmd/amacbench.
package amac_bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"amac/internal/check"
	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/harness"
	"amac/internal/mac"
	"amac/internal/scenario"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

func benchOpts(seed int64) harness.Options {
	return harness.Options{Quick: true, Trials: 1, Seed: seed}
}

// reportRatio extracts the final-row measured/bound ratio column and
// reports it as a benchmark metric.
func reportRatio(b *testing.B, tab *harness.Table, col int) {
	b.Helper()
	if len(tab.Rows) == 0 {
		b.Fatal("empty table")
	}
	last := tab.Rows[len(tab.Rows)-1]
	v, err := strconv.ParseFloat(last[col], 64)
	if err != nil {
		b.Fatalf("parse ratio %q: %v", last[col], err)
	}
	b.ReportMetric(v, "measured/bound")
}

// BenchmarkFig1StdReliable regenerates the G'=G cell of Figure 1:
// BMMB in O(D·Fprog + k·Fack) on reliable networks.
func BenchmarkFig1StdReliable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.Fig1StdReliable(benchOpts(int64(i + 1)))
		reportRatio(b, tab, 6)
	}
}

// BenchmarkFig1StdRRestricted regenerates the r-restricted cell of Figure 1
// (Theorem 3.2): BMMB in O(D·Fprog + r·k·Fack).
func BenchmarkFig1StdRRestricted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.Fig1StdRRestricted(benchOpts(int64(i + 1)))
		reportRatio(b, tab, 6)
	}
}

// BenchmarkFig1StdArbitrary regenerates the arbitrary-G' cell of Figure 1
// (Theorem 3.1): BMMB in O((D+k)·Fack).
func BenchmarkFig1StdArbitrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.Fig1StdArbitrary(benchOpts(int64(i + 1)))
		reportRatio(b, tab, 5)
	}
}

// BenchmarkFig2LowerBound regenerates the grey-zone lower bound (Theorem
// 3.17) by executing the Figure 2 parallel-lines schedule and the Lemma
// 3.18 star choke.
func BenchmarkFig2LowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.Fig2LowerBound(benchOpts(int64(i + 1)))
		reportRatio(b, tab, 4)
	}
}

// BenchmarkFig1EnhGreyZone regenerates the enhanced-model cell of Figure 1
// (Theorem 4.1): FMMB in O((D log n + k log n + log³n)·Fprog).
func BenchmarkFig1EnhGreyZone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.Fig1EnhGreyZone(benchOpts(int64(i + 1)))
		reportRatio(b, tab, 6)
	}
}

// BenchmarkAblationFackRatio regenerates the BMMB-vs-FMMB comparison as the
// Fack/Fprog gap widens (the paper's case for the abort interface).
func BenchmarkAblationFackRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.AblationFackRatio(benchOpts(int64(i + 1)))
	}
}

// BenchmarkLemma318Choke isolates the star-choke execution of Lemma 3.18
// at k = 16 and reports the completion time in Fack units.
func BenchmarkLemma318Choke(b *testing.B) {
	const k = 16
	s := topology.NewStarChoke(k)
	a := make(core.Assignment, s.N())
	for i := 1; i < k; i++ {
		v := s.Source(i)
		a[v] = []core.Msg{{ID: i - 1, Origin: v}}
	}
	a[s.Hub()] = []core.Msg{{ID: k - 1, Origin: s.Hub()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.MustRun(core.RunConfig{
			Dual:             s.Dual,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Sync{},
			Seed:             int64(i + 1),
			Assignment:       a,
			Automata:         core.NewBMMBFleet(s.N()),
			HaltOnCompletion: true,
		})
		if !res.Solved {
			b.Fatal("not solved")
		}
		b.ReportMetric(float64(res.CompletionTime)/200, "Fack-units")
	}
}

// BenchmarkMISSubroutine measures the standalone MIS subroutine on a
// grey-zone geometric network.
func BenchmarkMISSubroutine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.MISExperiment(benchOpts(int64(i + 1)))
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkGatherSubroutine and BenchmarkSpreadSubroutine measure the FMMB
// stages against their lemma budgets (Lemmas 4.6 and 4.8).
func BenchmarkGatherSubroutine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.SubroutineExperiment(benchOpts(int64(i + 1)))
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkSpreadSubroutine reports the spread-stage rounds of the largest
// k point of the subroutine experiment.
func BenchmarkSpreadSubroutine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.SubroutineExperiment(benchOpts(int64(i + 100)))
		last := tab.Rows[len(tab.Rows)-1]
		v, err := strconv.ParseFloat(last[3], 64)
		if err != nil {
			b.Fatalf("parse %q: %v", last[3], err)
		}
		b.ReportMetric(v, "spread-rounds")
	}
}

// BenchmarkBMMBvsFMMB reports raw completion times of the two algorithms on
// the same grey-zone network at a realistic Fack/Fprog = 32.
func BenchmarkBMMBvsFMMB(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	d := topology.ConnectedRandomGeometric(30, 3.8, 1.6, 0.5, rng, 200)
	if d == nil {
		b.Fatal("no connected instance")
	}
	const (
		k     = 4
		fprog = sim.Time(10)
		fack  = sim.Time(320) // Fack/Fprog = 32
	)
	a := make(core.Assignment, d.N())
	for i := 0; i < k; i++ {
		v := i * d.N() / k
		a[v] = append(a[v], core.Msg{ID: i, Origin: graph.NodeID(v)})
	}
	var bmmbT, fmmbT float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		bres := core.MustRun(core.RunConfig{
			Dual:             d,
			Fack:             fack,
			Fprog:            fprog,
			Scheduler:        &sched.Sync{Rel: sched.Bernoulli{P: 0.5}},
			Seed:             seed,
			Assignment:       a,
			Automata:         core.NewBMMBFleet(d.N()),
			HaltOnCompletion: true,
		})
		cfg := core.FMMBConfig{N: d.N(), K: k, D: d.G.Diameter(), C: 1.6}
		fres := core.MustRun(core.RunConfig{
			Dual:             d,
			Fack:             fack,
			Fprog:            fprog,
			Scheduler:        &sched.Slot{},
			Mode:             mac.Enhanced,
			Seed:             seed,
			Assignment:       a,
			Automata:         core.NewFMMBFleet(d.N(), cfg),
			Horizon:          sim.Time(cfg.Rounds()+2) * fprog,
			StepLimit:        1 << 62,
			HaltOnCompletion: true,
		})
		if !bres.Solved || !fres.Solved {
			b.Fatal("a run failed")
		}
		bmmbT += float64(bres.CompletionTime)
		fmmbT += float64(fres.CompletionTime)
	}
	b.ReportMetric(bmmbT/float64(b.N), "bmmb-ticks")
	b.ReportMetric(fmmbT/float64(b.N), "fmmb-ticks")
}

// BenchmarkEngineThroughput measures raw simulator throughput: BMMB
// flooding one message over a 64-node line, events per second.
func BenchmarkEngineThroughput(b *testing.B) {
	benchThroughput(b, false)
}

// BenchmarkEngineThroughputNoTrace is the same flood on the no-trace fast
// path (RunOptions.Trace = TraceOff): the completion watcher still observes
// every event, but nothing is recorded.
func BenchmarkEngineThroughputNoTrace(b *testing.B) {
	benchThroughput(b, true)
}

func traceOpts(noTrace bool) core.RunOptions {
	if noTrace {
		return core.RunOptions{Trace: core.TraceOff}
	}
	return core.RunOptions{}
}

func benchThroughput(b *testing.B, noTrace bool) {
	d := topology.Line(64)
	var steps uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.MustRun(core.RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Sync{},
			Seed:             int64(i + 1),
			Assignment:       core.SingleSource(64, 0, 4),
			Automata:         core.NewBMMBFleet(64),
			HaltOnCompletion: true,
			Options:          traceOpts(noTrace),
		})
		if !res.Solved {
			b.Fatal("not solved")
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "events/op")
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "events/sec")
	_ = sim.Time(0)
}

// BenchmarkEngineThroughputSparse floods one message over a 1024-node ring.
// Per-instance delivery state dominates memory at this shape — every node
// re-broadcasts once, so dense per-instance slices would cost O(n) words ×
// n instances (~8 MB per flood). The degree-indexed (CSR) storage keeps it
// at O(deg) per instance, which is what B/op measures here.
func BenchmarkEngineThroughputSparse(b *testing.B) {
	const n = 1024
	d := topology.Ring(n)
	var steps uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.MustRun(core.RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Sync{},
			Seed:             int64(i + 1),
			Assignment:       core.SingleSource(n, 0, 1),
			Automata:         core.NewBMMBFleet(n),
			HaltOnCompletion: true,
			Options:          core.RunOptions{Trace: core.TraceOff},
		})
		if !res.Solved {
			b.Fatal("not solved")
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "events/op")
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkBuildRGG measures network construction at the scale where it
// dominates a run: a 2·10⁴-node grey-zone rgg (average degree 4 ln n, c 1.6,
// p 0.5) built through the cell grid into a recycled workspace, CSR
// compaction of G and G′ included, plus the sampled diameter every run
// reads. arcs/op counts the G and G′ arcs each build emits.
func BenchmarkBuildRGG(b *testing.B) {
	params := topology.Params{"n": 20000, "side": 39.8, "c": 1.6, "p": 0.5}
	ws := topology.NewWorkspace()
	var arcs int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built, err := topology.BuildInto("rgg", params, 1, ws)
		if err != nil {
			b.Fatal(err)
		}
		if built.Dual.G.SampledDiameter() < 1 {
			b.Fatal("degenerate diameter")
		}
		_, g := built.Dual.G.CSR()
		_, gp := built.Dual.GPrime.CSR()
		arcs += len(g) + len(gp)
	}
	b.ReportMetric(float64(arcs)/float64(b.N), "arcs/op")
}

// BenchmarkBMMBRGG measures the standard-model reception path at scale:
// one-shot BMMB (k = 2 singleton messages, sync scheduler with rel 0.5,
// trace off, a fresh fleet and runner per iteration) on a prebuilt
// 2·10⁴-node grey-zone rgg (the BuildRGG network). The build runs outside
// the timer, so nearly all of the time is MAC receptions — most of them
// duplicates BMMB's rcvd set discards. rcvs/op counts them; ns/rcv is the
// time per reception.
func BenchmarkBMMBRGG(b *testing.B) {
	params := topology.Params{"n": 20000, "side": 39.8, "c": 1.6, "p": 0.5}
	built, err := topology.BuildInto("rgg", params, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	d := built.Dual
	n := d.N()
	origins := []graph.NodeID{0, graph.NodeID(n / 2)}
	var rcvs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.MustRun(core.RunConfig{
			Dual:             d,
			Fack:             200,
			Fprog:            10,
			Scheduler:        &sched.Sync{Rel: sched.Bernoulli{P: 0.5}},
			Seed:             int64(i + 1),
			Assignment:       core.Singleton(n, origins),
			Automata:         core.NewBMMBFleet(n),
			HaltOnCompletion: true,
			Options:          core.RunOptions{Trace: core.TraceOff},
		})
		if !res.Solved {
			b.Fatal("not solved")
		}
		for _, in := range res.Engine.Instances() {
			rcvs += in.NumDelivered()
		}
	}
	b.ReportMetric(float64(rcvs)/float64(b.N), "rcvs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rcvs), "ns/rcv")
}

// BenchmarkCheckAll measures the model checker on its own: check.All over
// a prebuilt BMMB execution (k = 8 singleton messages, sync scheduler with
// rel 0.5, trace off) on a 4,000-node grey-zone rgg at the large-n density
// — side √(πn / (4 ln n)), so the average degree is 4 ln n — with c 1.6
// and p 0.5. The run happens outside the timer. rcvs/op counts the
// recorded receives each check re-derives the guarantees from; ns/rcv is
// the checking time per receive.
func BenchmarkCheckAll(b *testing.B) {
	const n = 4000
	side := math.Sqrt(math.Pi * n / (4 * math.Log(n)))
	built, err := topology.BuildInto("rgg", topology.Params{"n": n, "side": side, "c": 1.6, "p": 0.5}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	d := built.Dual
	origins := make([]graph.NodeID, 8)
	for i := range origins {
		origins[i] = graph.NodeID(i * n / len(origins))
	}
	res := core.MustRun(core.RunConfig{
		Dual:             d,
		Fack:             200,
		Fprog:            10,
		Scheduler:        &sched.Sync{Rel: sched.Bernoulli{P: 0.5}},
		Seed:             1,
		Assignment:       core.Singleton(n, origins),
		Automata:         core.NewBMMBFleet(n),
		HaltOnCompletion: true,
		Options:          core.RunOptions{Trace: core.TraceOff},
	})
	if !res.Solved {
		b.Fatal("not solved")
	}
	insts := res.Engine.Instances()
	rcvs := 0
	for _, in := range insts {
		rcvs += in.NumDelivered()
	}
	p := check.Params{Fack: 200, Fprog: 10, End: res.End}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if rep := check.All(d, insts, p); !rep.OK() {
			b.Fatalf("clean execution flagged: %v", rep.Violations[0])
		}
	}
	b.ReportMetric(float64(rcvs), "rcvs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rcvs), "ns/rcv")
}

// BenchmarkSweepPinnedTopology measures repeated trials of one pinned
// topology through scenario.Sweep — the shape of every figure sweep in this
// repo. B/op is the headline metric: warm trials reuse the fleet, the
// engine and its node states, the flat CSR delivery rows and the trace
// buffer, so per-trial allocation collapses to per-event work.
func BenchmarkSweepPinnedTopology(b *testing.B) {
	spec := scenario.Spec{
		Name: "pinned-rline-sweep",
		Topology: scenario.TopologySpec{
			Name:   "rline",
			Params: topology.Params{"n": 48, "r": 2, "p": 0.6},
			Seed:   7,
		},
		Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 4},
		Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
		Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
		Model:     scenario.ModelSpec{Fprog: 10, Fack: 200},
		Run:       scenario.RunSpec{Seed: 1, Trials: 16},
	}
	benchSweep(b, spec)
}

// BenchmarkSweepRandomTopology measures repeated trials of an *unpinned*
// randomized topology through scenario.Sweep — every trial draws a fresh
// grey-zone geometric network. B/op is the headline metric: warm trials
// emit the per-trial graphs into recycled workspace storage and rebind one
// runner instead of building a fresh one, so the per-trial cost collapses
// toward per-event work even though no two trials share a network.
func BenchmarkSweepRandomTopology(b *testing.B) {
	spec := scenario.Spec{
		Name: "random-rgg-sweep",
		Topology: scenario.TopologySpec{
			Name:   "rgg",
			Params: topology.Params{"n": 36, "side": 4.2, "c": 1.6, "p": 0.5},
		},
		Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 4},
		Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
		Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
		Model:     scenario.ModelSpec{Fprog: 10, Fack: 200},
		Run:       scenario.RunSpec{Seed: 1, Trials: 16},
	}
	benchSweep(b, spec)
}

// benchSweep runs the spec's trials through a sequential sweep per
// iteration and fails unless every trial solves.
func benchSweep(b *testing.B, spec scenario.Spec) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reports, err := scenario.SweepWithOptions([]scenario.Spec{spec}, scenario.SweepOptions{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if got := reports[0].Solved(); got != spec.Run.Trials {
			b.Fatalf("%d/%d trials solved", got, spec.Run.Trials)
		}
	}
}

// BenchmarkHarnessParallelism measures experiment wall-time scaling with
// Options.Parallelism (sub-benchmarks p=1 and p=NumCPU); the rendered
// tables are byte-identical by construction.
func BenchmarkHarnessParallelism(b *testing.B) {
	for _, p := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOpts(int64(i + 1))
				o.Parallelism = p
				_ = harness.Fig1StdReliable(o)
			}
		})
	}
}
