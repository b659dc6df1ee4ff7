package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"amac/internal/core"
	"amac/internal/scenario"
	"amac/internal/sim"
	"amac/internal/topology"
)

// The large-n experiments are gated behind amacbench -experiments large-n:
// they push the simulator to n = 10^5 — two orders of magnitude past the
// Figure 1 sweeps — which is minutes of wall time (the FMMB run schedules
// ~n events per round over tens of thousands of rounds) and therefore has
// no place in default runs, benchmarks or the CI bench gate. They exist
// because the paper's separation only becomes visually dramatic on sparse
// networks at this scale; the flat-CSR graph core, sampled diameters and
// the streaming trace backend are what make the runs feasible at all.

// largeNDiamSamples/Seed fix the sampled-diameter parameters the large-n
// tables report — the same estimate FMMB's default schedule consumes.
const (
	largeNDiamSamples = 8
	largeNDiamSeed    = 1
)

// largeNSide returns the square side giving an n-node unit-disk rgg a
// target average degree of 4·ln n: dense enough for w.h.p. connectivity
// and a small diameter, sparse enough that m stays O(n·log n). (The
// registry's DefaultRGGSide targets log⁴n/n density, which disconnects
// at these sizes.)
func largeNSide(n int) float64 {
	deg := 4 * math.Log(float64(n))
	return math.Sqrt(math.Pi * float64(n) / deg)
}

// LargeNRGG produces the BMMB-vs-FMMB separation table on sparse random
// geometric networks up to n = 10^5 (gated: amacbench -experiments
// large-n). Both algorithms run on the same pinned draw per size; the
// crossover column reports the Fack/Fprog ratio above which BMMB's k·Fack
// term exceeds FMMB's Fack-free polylog schedule — the paper's argument
// for the enhanced model, at pod scale. BMMB rows stream their traces to
// disk through run.trace_file (the in-memory Trace is never materialized);
// the FMMB rows run trace=off, as their ~10^9 events would be gigabytes.
func LargeNRGG(o Options) *Table {
	o = o.withDefaults()
	const c = 1.6
	const k = 2
	sizes := []int{1000, 10000, 100000}
	if o.Quick {
		sizes = sizes[:2]
	}

	dir, err := os.MkdirTemp("", "amac-large-n-")
	if err != nil {
		panic(fmt.Sprintf("harness: large-n-rgg: %v", err))
	}
	defer os.RemoveAll(dir)

	var specs []scenario.Spec
	for pi, n := range sizes {
		topo := scenario.TopologySpec{Name: "rgg",
			Params: topology.Params{"n": float64(n), "side": largeNSide(n), "c": c, "p": 0.5},
			// Pin the draw per size so both algorithms see one instance.
			Seed: int64(424200 + pi)}
		workload := scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: k}
		model := scenario.ModelSpec{Fprog: int64(o.Fprog), Fack: int64(o.Fack)}
		specs = append(specs,
			scenario.Spec{
				Topology:  topo,
				Workload:  workload,
				Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
				Model:     model,
				Run: scenario.RunSpec{Seed: o.Seed, Trials: 1, Trace: "stream",
					TraceFile: filepath.Join(dir, fmt.Sprintf("bmmb-rgg-%d.amtr", n))},
			},
			scenario.Spec{
				Topology:  topo,
				Workload:  workload,
				Algorithm: scenario.AlgorithmSpec{Name: "fmmb", Params: topology.Params{"c": c}},
				Model:     model,
				Run:       scenario.RunSpec{Seed: o.Seed, Trials: 1, Trace: "off"},
			})
	}

	reports, err := o.sweep("large-n-rgg", specs)
	if err != nil {
		panic(fmt.Sprintf("harness: large-n-rgg: %v", err))
	}

	t := &Table{
		ID:         "large-n-rgg",
		Title:      "BMMB vs FMMB separation on sparse geometric networks at scale",
		PaperClaim: "BMMB O(D·Fprog + k·Fack) vs FMMB O((D·log n + k·log n + log³n)·Fprog), Fack-free  [Figure 1]",
		Columns:    []string{"n", "D~", "edges", "bmmb-ticks", "bmmb-events", "fmmb-ticks", "fmmb-events", "crossover-Fack/Fprog"},
	}
	for pi, n := range sizes {
		bm := reports[2*pi]
		fm := reports[2*pi+1]
		var bmT, fmT sim.Time
		var bmEv, fmEv uint64
		for _, r := range []*scenario.Report{bm, fm} {
			for _, tr := range r.Trials {
				countSimEvents(tr.Result.Steps)
				if !tr.Result.Solved {
					panic(fmt.Sprintf("harness: %s failed on %s (%d/%d delivered by %v)",
						r.Spec.Algorithm.Name, tr.Built.Dual.Name,
						tr.Result.Delivered, tr.Result.Required, tr.Result.End))
				}
			}
		}
		bmT, bmEv = bm.Trials[0].Result.CompletionTime, bm.Trials[0].Result.Steps
		fmT, fmEv = fm.Trials[0].Result.CompletionTime, fm.Trials[0].Result.Steps
		g := bm.Trials[0].Built.Dual.G
		d := g.ApproxDiameter(largeNDiamSamples, largeNDiamSeed)
		// BMMB(Fack) ≈ D·Fprog + k·Fack meets FMMB's Fack-free completion
		// at Fack* = (fmmb - D·Fprog)/k; report Fack*/Fprog.
		crossover := (float64(fmT) - float64(d)*float64(o.Fprog)) / float64(k) / float64(o.Fprog)
		t.AddRow(fmt.Sprint(n), fmt.Sprint(d), fmt.Sprint(g.M()),
			fmt.Sprint(bmT), fmt.Sprint(bmEv), fmt.Sprint(fmT), fmt.Sprint(fmEv),
			fmt.Sprintf("%.0f", crossover))
	}
	t.AddNote("one trial per point on a pinned draw; both algorithms share the instance")
	t.AddNote("D~ is the sampled diameter estimate (k-source double sweep), the same input FMMB's schedule consumes")
	t.AddNote("bmmb rows stream their trace to a binary file (run.trace_file); fmmb rows run trace=off")
	t.AddNote("fmmb completion has no Fack term (pinned by ablation-bmmb-vs-fmmb): past the crossover ratio, BMMB's k·Fack term loses to FMMB's polylog schedule")
	return t
}

// LargeNGrid checks BMMB's O(D·Fprog + k·Fack) bound on reliable grids up
// to n ≈ 10^5 (gated: amacbench -experiments large-n) — the
// deterministic-topology counterpart of large-n-rgg, where the diameter is
// exact by construction (D = 2(s-1) on an s×s grid) so the bound needs no
// sampled estimate.
func LargeNGrid(o Options) *Table {
	o = o.withDefaults()
	const k = 2
	sides := []int{50, 100, 316}
	if o.Quick {
		sides = sides[:2]
	}
	var points []SweepPoint
	for _, s := range sides {
		n := s * s
		d := 2 * (s - 1)
		points = append(points, SweepPoint{
			Spec: bmmbSpec(
				scenario.TopologySpec{Name: "grid", Params: topology.Params{"n": float64(n)}},
				scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: k},
				scenario.SchedulerSpec{Name: "sync"},
			),
			X:     float64(d),
			Cells: cells(fmt.Sprint(n), fmt.Sprint(d), fmt.Sprint(k)),
			Bound: staticBound(float64(sim.Time(d)*o.Fprog + sim.Time(k)*o.Fack)),
		})
	}
	return RunSweep(o, SweepDef{
		ID:         "large-n-grid",
		Title:      "BMMB, standard model, reliable grids at scale",
		PaperClaim: "O(D·Fprog + k·Fack)  [Figure 1; bound from KLN'11]",
		Columns:    []string{"n", "D", "k", "time", "bound", "ratio"},
		Segments:   []SweepSegment{{Points: points}},
		Verdict:    VerdictUpper,
	})
}

// LargeNSharded exercises the component-sharded executor end to end on
// multi-component pods networks, serial engine versus decomposed engines.
// Unlike the gated large-n tables it is ungated and modestly sized: its
// wall time and events/sec land in the BENCH.json perf record on every
// amacbench run, so the benchdiff gate catches sharded-path throughput and
// allocation regressions exactly like serial ones. The "1==P" column is
// the correctness half: the decomposed execution must be byte-identical
// between one worker and Options.Shards workers (it is a pure function of
// the configuration), and a mismatch renders VIOLATED.
func LargeNSharded(o Options) *Table {
	o = o.withDefaults()
	shards := o.Shards
	if shards == 0 {
		shards = runtime.NumCPU()
	}
	const pods = 8
	sizes := []int{2000, 8000}
	if o.Quick {
		sizes = sizes[:1]
	}

	var specs []scenario.Spec
	for pi, n := range sizes {
		topo := scenario.TopologySpec{Name: "pods",
			Params: topology.Params{"n": float64(n), "k": float64(pods), "r": 2, "p": 0.5},
			// Pin the draw per size so all three legs see one instance.
			Seed: int64(535300 + pi)}
		workload := scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: pods}
		model := scenario.ModelSpec{Fprog: int64(o.Fprog), Fack: int64(o.Fack)}
		for _, sh := range []int{0, 1, shards} {
			specs = append(specs, scenario.Spec{
				Topology:  topo,
				Workload:  workload,
				Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
				Model:     model,
				Run:       scenario.RunSpec{Seed: o.Seed, Trials: 1, Shards: sh},
			})
		}
	}

	reports, err := o.sweep("large-n-sharded", specs)
	if err != nil {
		panic(fmt.Sprintf("harness: large-n-sharded: %v", err))
	}

	t := &Table{
		ID:         "large-n-sharded",
		Title:      "Component-sharded execution on multi-component pods networks",
		PaperClaim: "disconnected duals have no cross-component events: per-component executions compose exactly  [Section 2 locality]",
		Columns:    []string{"n", "pods", "serial-ticks", "sharded-ticks", "sharded-events", "shards", "1==P"},
	}
	violated := false
	for pi, n := range sizes {
		serial := reports[3*pi].Trials[0].Result
		one := reports[3*pi+1].Trials[0].Result
		many := reports[3*pi+2].Trials[0].Result
		for _, r := range []*core.Result{serial, one, many} {
			countSimEvents(r.Steps)
			if !r.Solved {
				panic(fmt.Sprintf("harness: large-n-sharded: unsolved at n=%d (%d/%d delivered)",
					n, r.Delivered, r.Required))
			}
		}
		identical := one.CompletionTime == many.CompletionTime && one.End == many.End &&
			one.Steps == many.Steps && one.Broadcasts == many.Broadcasts &&
			one.Delivered == many.Delivered
		if !identical {
			violated = true
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(pods),
			fmt.Sprint(serial.CompletionTime), fmt.Sprint(many.CompletionTime),
			fmt.Sprint(many.Steps), fmt.Sprint(shards), fmt.Sprint(identical))
	}
	if violated {
		t.AddNote("VIOLATED: decomposed execution differs between 1 worker and the sharded pool — determinism broken")
	} else {
		t.AddNote("decomposed runs are byte-identical at any worker count; serial and sharded ticks differ legitimately (per-component scheduler streams)")
	}
	note := fmt.Sprintf("sharded legs ran with shards=%d on %d CPU(s); wall time (in the perf record) is what benchdiff gates", shards, runtime.NumCPU())
	t.AddNote("%s", note)
	return t
}
