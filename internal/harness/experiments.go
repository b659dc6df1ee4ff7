package harness

import (
	"fmt"
	"math"

	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/scenario"
	"amac/internal/sim"
	"amac/internal/stats"
	"amac/internal/topology"
)

// The Fig1*/Fig2* experiments below are declarative sweep definitions: each
// data point is a scenario.Spec (topology, workload, algorithm and scheduler
// all resolved by name through the registries) plus its display cells and
// bound formula, executed by the generic RunSweep. Adding a sweep point is a
// data change.

// shapeThreshold is the maximum relative growth of the measured/bound ratio
// across a sweep before the harness declares the bound's shape violated.
const shapeThreshold = 0.75

// looseBound is the measured/bound ratio below which the bound is
// comfortably loose: ratio-trend analysis is then meaningless (relative
// growth of near-zero ratios) and the upper bound trivially holds.
const looseBound = 0.5

func verdict(t *Table, sweep, measured, bound []float64) {
	trend := stats.GrowthTrend(sweep, measured, bound)
	maxRatio := 0.0
	for _, r := range stats.Ratios(measured, bound) {
		if r > maxRatio {
			maxRatio = r
		}
	}
	ok := "HOLDS"
	switch {
	case maxRatio <= looseBound:
		t.AddNote("shape %s: measured stays within %.0f%% of the bound everywhere (bound comfortably loose)",
			ok, maxRatio*100)
		return
	case trend > shapeThreshold:
		ok = "VIOLATED"
	}
	t.AddNote("shape %s: measured/bound ratio trend %+.3f across the sweep (threshold %.2f)",
		ok, trend, shapeThreshold)
}

// bmmbSpec is the common BMMB scenario skeleton of the Figure 1 sweeps.
func bmmbSpec(topo scenario.TopologySpec, w scenario.WorkloadSpec, s scenario.SchedulerSpec) scenario.Spec {
	return scenario.Spec{
		Topology:  topo,
		Workload:  w,
		Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
		Scheduler: s,
	}
}

// Fig1StdReliable reproduces the G′ = G cell of Figure 1 (bound from [30]):
// BMMB solves MMB in O(D·Fprog + k·Fack). Two sweeps on reliable lines
// under the Sync scheduler (receives at Fprog, acks at the full Fack — the
// worst legal timing).
func Fig1StdReliable(o Options) *Table {
	o = o.withDefaults()
	bound := func(d, k int) float64 {
		return float64(sim.Time(d)*o.Fprog + sim.Time(k)*o.Fack)
	}
	sizes := []int{8, 16, 32, 64}
	if o.Quick {
		sizes = []int{8, 16, 32}
	}
	const kD = 4
	var dPoints []SweepPoint
	for _, n := range sizes {
		dPoints = append(dPoints, SweepPoint{
			Spec: bmmbSpec(
				scenario.TopologySpec{Name: "line", Params: topology.Params{"n": float64(n)}},
				scenario.WorkloadSpec{Kind: scenario.WorkloadSingleSource, K: kD, Origin: 0},
				scenario.SchedulerSpec{Name: "sync"},
			),
			X:     float64(n - 1),
			Cells: cells("D", fmt.Sprint(n), fmt.Sprint(n-1), fmt.Sprint(kD)),
			Bound: staticBound(bound(n-1, kD)),
		})
	}
	ks := []int{1, 2, 4, 8, 16}
	if o.Quick {
		ks = []int{1, 4, 8}
	}
	const nK = 32
	var kPoints []SweepPoint
	for _, k := range ks {
		kPoints = append(kPoints, SweepPoint{
			Spec: bmmbSpec(
				scenario.TopologySpec{Name: "line", Params: topology.Params{"n": float64(nK)}},
				scenario.WorkloadSpec{Kind: scenario.WorkloadSingleSource, K: k, Origin: 0},
				scenario.SchedulerSpec{Name: "sync"},
			),
			X:     float64(k),
			Cells: cells("k", fmt.Sprint(nK), fmt.Sprint(nK-1), fmt.Sprint(k)),
			Bound: staticBound(bound(nK-1, k)),
		})
	}
	return RunSweep(o, SweepDef{
		ID:         "fig1-std-reliable",
		Title:      "BMMB, standard model, G' = G",
		PaperClaim: "O(D·Fprog + k·Fack)  [Figure 1; bound from KLN'11]",
		Columns:    []string{"sweep", "n", "D", "k", "time", "bound", "ratio"},
		Segments:   []SweepSegment{{Points: dPoints}, {Points: kPoints}},
		Verdict:    VerdictUpper,
	})
}

// Fig1StdRRestricted reproduces the r-restricted cell of Figure 1 (Theorem
// 3.2): BMMB solves MMB in O(D·Fprog + r·k·Fack) when every G′ edge spans
// at most r hops of G. The sweep varies r on a line with a dense
// r-restricted G′ under both benign and contention schedulers.
func Fig1StdRRestricted(o Options) *Table {
	o = o.withDefaults()
	n, k := 33, 6
	rs := []int{1, 2, 4, 8}
	if o.Quick {
		n, k = 17, 4
		rs = []int{1, 2, 4}
	}
	bound := func(r int) float64 {
		return float64(sim.Time(n-1)*o.Fprog + sim.Time(r*k)*o.Fack)
	}
	var segments []SweepSegment
	for _, schedName := range []string{"sync", "contention"} {
		var points []SweepPoint
		for _, r := range rs {
			points = append(points, SweepPoint{
				Spec: bmmbSpec(
					scenario.TopologySpec{Name: "rline",
						Params: topology.Params{"n": float64(n), "r": float64(r), "p": 0.6}},
					scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: k},
					scenario.SchedulerSpec{Name: schedName, Params: topology.Params{"rel": 0.5}},
				),
				X:     float64(r),
				Cells: cells(schedName, fmt.Sprint(n), fmt.Sprint(r), fmt.Sprint(k)),
				Bound: staticBound(bound(r)),
			})
		}
		segments = append(segments, SweepSegment{Points: points})
	}
	return RunSweep(o, SweepDef{
		ID:         "fig1-std-rrestricted",
		Title:      "BMMB, standard model, r-restricted G'",
		PaperClaim: "O(D·Fprog + r·k·Fack)  [Theorem 3.2]",
		Columns:    []string{"sched", "n", "r", "k", "time", "bound", "ratio"},
		Segments:   segments,
		Verdict:    VerdictUpper,
	})
}

// Fig1StdArbitrary reproduces the arbitrary-G′ cell of Figure 1 (Theorem
// 3.1): BMMB solves MMB in O((D + k)·Fack) with no constraint on G′.
func Fig1StdArbitrary(o Options) *Table {
	o = o.withDefaults()
	n := 33
	ks := []int{2, 4, 8, 16}
	if o.Quick {
		n = 17
		ks = []int{2, 4, 8}
	}
	extra := n
	var points []SweepPoint
	for _, k := range ks {
		points = append(points, SweepPoint{
			Spec: bmmbSpec(
				scenario.TopologySpec{Name: "noisy-line",
					Params: topology.Params{"n": float64(n), "extra": float64(extra)}},
				scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: k},
				scenario.SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
			),
			X:     float64(k),
			Cells: cells(fmt.Sprint(n), fmt.Sprint(extra), fmt.Sprint(k)),
			Bound: staticBound(float64(sim.Time(n-1+k) * o.Fack)),
		})
	}
	return RunSweep(o, SweepDef{
		ID:         "fig1-std-arbitrary",
		Title:      "BMMB, standard model, arbitrary G'",
		PaperClaim: "O((D + k)·Fack)  [Theorem 3.1]",
		Columns:    []string{"n", "extra-G'", "k", "time", "bound", "ratio"},
		Segments:   []SweepSegment{{Points: points}},
		Verdict:    VerdictUpper,
	})
}

// Fig2LowerBound reproduces the grey-zone lower bound (Theorem 3.17) by
// executing its two adversarial constructions: the Lemma 3.18 star choke
// (Ω(k·Fack)) and the Lemma 3.19/3.20 parallel-lines schedule on the
// Figure 2 network (Ω(D·Fack)). The measured completion must meet or
// exceed the formula — these are lower bounds, so ratio ≥ 1 is the verdict.
func Fig2LowerBound(o Options) *Table {
	o = o.withDefaults()
	ds := []int{4, 8, 16, 32}
	ks := []int{2, 4, 8, 16}
	if o.Quick {
		ds = []int{4, 8, 16}
		ks = []int{2, 4, 8}
	}
	var dPoints []SweepPoint
	for _, d := range ds {
		dPoints = append(dPoints, SweepPoint{
			Spec: bmmbSpec(
				scenario.TopologySpec{Name: "parallel-lines", Params: topology.Params{"d": float64(d)}},
				scenario.WorkloadSpec{Kind: scenario.WorkloadConstruction},
				scenario.SchedulerSpec{Name: "adversary"},
			),
			X:     float64(d),
			Cells: cells("parallel-lines (Fig 2)", fmt.Sprintf("D=%d", d)),
			Bound: staticBound(float64(sim.Time(d-1) * o.Fack)),
		})
	}
	var kPoints []SweepPoint
	for _, k := range ks {
		kPoints = append(kPoints, SweepPoint{
			Spec: bmmbSpec(
				scenario.TopologySpec{Name: "star-choke", Params: topology.Params{"k": float64(k)}},
				scenario.WorkloadSpec{Kind: scenario.WorkloadConstruction},
				scenario.SchedulerSpec{Name: "sync"},
			),
			X:     float64(k),
			Cells: cells("star-choke (Lemma 3.18)", fmt.Sprintf("k=%d", k)),
			Bound: staticBound(float64(sim.Time(k-1) * o.Fack)),
		})
	}
	return RunSweep(o, SweepDef{
		ID:         "fig1-std-greyzone-lb",
		Title:      "Lower bound executions, standard model, grey zone G'",
		PaperClaim: "Ω((D + k)·Fack)  [Theorem 3.17; Figure 2 network]",
		Columns:    []string{"construction", "param", "time", "formula", "ratio"},
		Segments:   []SweepSegment{{Points: dPoints}, {Points: kPoints}},
		Verdict:    VerdictLower,
	})
}

// Fig1EnhGreyZone reproduces the enhanced-model cell of Figure 1 (Theorem
// 4.1): FMMB solves MMB in O((D·log n + k·log n + log³n)·Fprog) w.h.p. on
// grey-zone networks, with no Fack term at all.
func Fig1EnhGreyZone(o Options) *Table {
	o = o.withDefaults()
	const c = 1.6
	bound := func(d, k, n int) float64 {
		ln := float64(core.Log2Ceil(n))
		if ln < 1 {
			ln = 1
		}
		return (float64(d)*ln + float64(k)*ln + ln*ln*ln)
	}
	type point struct {
		n    int
		side float64
		k    int
	}
	npoints := []point{{16, 2.6, 3}, {25, 3.3, 3}, {36, 4.2, 3}, {49, 5.0, 3}}
	kpoints := []point{{36, 4.2, 1}, {36, 4.2, 2}, {36, 4.2, 4}, {36, 4.2, 8}}
	if o.Quick {
		npoints = npoints[:3]
		kpoints = kpoints[:3]
	}
	segment := func(sweepName string, pts []point, sweepOf func(point) float64) SweepSegment {
		var points []SweepPoint
		for _, p := range pts {
			p := p
			points = append(points, SweepPoint{
				Spec: scenario.Spec{
					Topology: scenario.TopologySpec{Name: "rgg",
						Params:     topology.Params{"n": float64(p.n), "side": p.side, "c": c, "p": 0.5},
						SeedFactor: 1237},
					Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: p.k},
					Algorithm: scenario.AlgorithmSpec{Name: "fmmb", Params: topology.Params{"c": c}},
				},
				X: sweepOf(p),
				Cells: func(r *scenario.Report) []string {
					// The instance topology (and so the diameter) is
					// seed-keyed; report the last trial's, matching the
					// sequential harness.
					return []string{sweepName, fmt.Sprint(p.n),
						fmt.Sprintf("%.0f", lastDiameter(r)), fmt.Sprint(p.k)}
				},
				Measure: meanRounds(o.Fprog),
				Bound: func(r *scenario.Report) float64 {
					return bound(int(lastDiameter(r)), p.k, p.n)
				},
			})
		}
		return SweepSegment{Points: points}
	}
	return RunSweep(o, SweepDef{
		ID:         "fig1-enh-greyzone",
		Title:      "FMMB, enhanced model, grey zone G'",
		PaperClaim: "O((D·log n + k·log n + log³n)·Fprog), w.h.p.  [Theorem 4.1]",
		Columns:    []string{"sweep", "n", "D", "k", "rounds", "bound-rounds", "ratio"},
		Segments: []SweepSegment{
			segment("n", npoints, func(p point) float64 { return float64(p.n) }),
			segment("k", kpoints, func(p point) float64 { return float64(p.k) }),
		},
		Verdict:    VerdictUpper,
		FinalNotes: []string{"completion has no Fack term: see ablation-bmmb-vs-fmmb for the Fack sweep"},
	})
}

// Fig1StdGreyZoneRand measures BMMB on *per-trial random* grey-zone
// geometric networks: no pinned topology seed, so every trial draws a fresh
// instance (seed-keyed through SeedFactor). Its role is twofold: the
// arbitrary-G′ bound of Theorem 3.1 is checked on the grey-zone regime the
// paper motivates, and the sweep exercises the unpinned warm path
// (workspace-built topologies, rebound run arenas) at full size, so the
// benchdiff gate watches its events/sec like every other experiment.
func Fig1StdGreyZoneRand(o Options) *Table {
	o = o.withDefaults()
	const c = 1.6
	const k = 3
	type point struct {
		n    int
		side float64
	}
	pts := []point{{16, 2.6}, {25, 3.3}, {36, 4.2}, {49, 5.0}}
	if o.Quick {
		pts = pts[:3]
	}
	var points []SweepPoint
	for _, p := range pts {
		p := p
		points = append(points, SweepPoint{
			Spec: bmmbSpec(
				scenario.TopologySpec{Name: "rgg",
					Params:     topology.Params{"n": float64(p.n), "side": p.side, "c": c, "p": 0.5},
					SeedFactor: 1237},
				scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: k},
				scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
			),
			X: float64(p.n),
			Cells: func(r *scenario.Report) []string {
				// The instance topology is seed-keyed; report the last
				// trial's diameter, matching the other randomized sweeps.
				return []string{fmt.Sprint(p.n), fmt.Sprintf("%.0f", lastDiameter(r)), fmt.Sprint(k)}
			},
			Bound: func(r *scenario.Report) float64 {
				return float64((sim.Time(lastDiameter(r)) + k) * o.Fack)
			},
		})
	}
	return RunSweep(o, SweepDef{
		ID:         "fig1-std-greyzone-rand",
		Title:      "BMMB, standard model, random grey zone instances (fresh topology per trial)",
		PaperClaim: "O((D + k)·Fack)  [Theorem 3.1 applied to the grey zone regime]",
		Columns:    []string{"n", "D", "k", "time", "bound", "ratio"},
		Segments:   []SweepSegment{{Points: points}},
		Verdict:    VerdictUpper,
	})
}

// AblationFackRatio reproduces the headline comparison implied by Figure 1:
// as Fack/Fprog grows (the realistic regime, Fprog ≪ Fack), BMMB's
// completion time on the standard layer grows with Fack while FMMB on the
// enhanced layer is Fack-independent — the paper's argument for the abort
// interface. Both sides of each point are scenario specs sharing one pinned
// grey-zone instance, run as one sweep (so on an amacd daemon under
// amacbench -server).
func AblationFackRatio(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:         "ablation-bmmb-vs-fmmb",
		Title:      "BMMB (standard) vs FMMB (enhanced) as Fack/Fprog grows",
		PaperClaim: "FMMB has no Fack term (Theorem 4.1); BMMB pays k·Fack (Theorem 3.2)",
		Columns:    []string{"Fack/Fprog", "BMMB-time", "FMMB-time", "winner"},
	}
	ratios := []int{2, 8, 32, 128}
	if o.Quick {
		ratios = []int{2, 8, 32}
	}
	const c = 1.6
	const k = 4
	topo := scenario.TopologySpec{Name: "rgg",
		Params: topology.Params{"n": 30, "side": 3.8, "c": c, "p": 0.5},
		Seed:   424242}
	workload := scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: k}
	// Two specs per ratio, BMMB then FMMB, in one sweep. The topology is
	// pinned by its seed: one instance serves every spec and trial.
	var specs []scenario.Spec
	for _, r := range ratios {
		model := scenario.ModelSpec{Fprog: int64(o.Fprog), Fack: int64(o.Fprog) * int64(r)}
		run := scenario.RunSpec{Seed: o.Seed, Trials: o.Trials, Check: o.Check}
		specs = append(specs,
			scenario.Spec{
				Topology:  topo,
				Workload:  workload,
				Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
				Model:     model,
				Run:       run,
			},
			scenario.Spec{
				Topology:  topo,
				Workload:  workload,
				Algorithm: scenario.AlgorithmSpec{Name: "fmmb", Params: topology.Params{"c": c}},
				Model:     model,
				Run:       run,
			})
	}
	reports := o.mustSweep(t.ID, specs)
	var bs, fs []float64
	for pi, r := range ratios {
		bm := reports[2*pi].MeanCompletion()
		fm := reports[2*pi+1].MeanCompletion()
		w := "BMMB"
		if fm < bm {
			w = "FMMB"
		}
		t.AddRow(fmt.Sprint(r), ticksStr(bm), ticksStr(fm), w)
		bs = append(bs, bm)
		fs = append(fs, fm)
	}
	bGrowth := bs[len(bs)-1] / bs[0]
	fGrowth := fs[len(fs)-1] / fs[0]
	t.AddNote("BMMB grew %.1f×, FMMB grew %.2f× across the Fack sweep", bGrowth, fGrowth)
	if fGrowth < 1.05 && bGrowth > 2 {
		t.AddNote("shape HOLDS: crossover where k·Fack exceeds FMMB's polylog rounds")
	} else {
		t.AddNote("shape VIOLATED: expected Fack-linear BMMB vs Fack-flat FMMB")
	}
	return t
}

// mustTrialOn executes one scenario trial of experiment id on a pre-built
// network instance, panicking on a spec error, and holds it to
// mustSucceed.
func mustTrialOn(id string, s scenario.Spec, seed int64, built *topology.Built) *scenario.TrialResult {
	tr, err := scenario.TrialOn(s, seed, built)
	if err != nil {
		panic(fmt.Sprintf("harness: %s: %v", id, err))
	}
	mustSucceed(id, s.Algorithm.Name, tr)
	return tr
}

// MISExperiment measures the MIS subroutine (Section 4.2) standalone:
// validity of the constructed set and rounds until the last node decides,
// against the paper's O(c⁴·log³ n) schedule.
func MISExperiment(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:         "mis-subroutine",
		Title:      "MIS subroutine on grey-zone geometric networks",
		PaperClaim: "valid MIS w.h.p. in O(c⁴·log³ n) rounds  [Section 4.2]",
		Columns:    []string{"n", "|MIS|", "|greedy|", "valid", "decide-rounds", "schedule-rounds"},
	}
	const c = 1.6
	sizes := []int{16, 25, 36, 49}
	if o.Quick {
		sizes = []int{16, 25, 36}
	}
	type trial struct {
		misSize, greedySize, decideRounds, schedRounds float64
		valid                                          bool
	}
	res := collectTrials(o, len(sizes), func(pi int, seed int64) trial {
		n := sizes[pi]
		side := math.Sqrt(float64(n)) * 0.72
		built, err := topology.Build("rgg", topology.Params{
			"n": float64(n), "side": side, "c": c, "p": 0.5, "seed": float64(seed * 7717)})
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		d := built.Dual
		set, decideAt, total := runMIS(o, d, c, seed)
		return trial{
			misSize:      float64(len(set)),
			greedySize:   float64(len(d.G.GreedyMIS())),
			decideRounds: float64(decideAt) / float64(o.Fprog),
			schedRounds:  float64(total),
			valid:        d.G.IsMaximalIndependent(set),
		}
	})
	for pi, n := range sizes {
		valid := true
		var misSize, greedySize, decideRounds, schedRounds float64
		for _, tr := range res[pi] {
			if !tr.valid {
				valid = false
			}
			misSize += tr.misSize
			greedySize += tr.greedySize
			decideRounds += tr.decideRounds
			schedRounds = tr.schedRounds
		}
		misSize /= float64(o.Trials)
		greedySize /= float64(o.Trials)
		decideRounds /= float64(o.Trials)
		t.AddRow(fmt.Sprint(n), fmt.Sprintf("%.1f", misSize), fmt.Sprintf("%.1f", greedySize),
			fmt.Sprint(valid), ticksStr(decideRounds), ticksStr(schedRounds))
		if !valid {
			t.AddNote("VIOLATED: invalid MIS at n=%d", n)
		}
	}
	t.AddNote("decide-rounds ≪ schedule-rounds: the subroutine converges far before its worst-case budget")
	t.AddNote("|greedy| is the centralized sequential baseline (graph.GreedyMIS) on the same instances")
	return t
}

// SubroutineExperiment measures the gather (Lemma 4.6) and spread (Lemma
// 4.8) stages inside full FMMB runs: time for every message to be owned by
// an MIS node, and time from spread start to full dissemination.
func SubroutineExperiment(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:         "gather-spread-subroutines",
		Title:      "Gather and spread stages inside FMMB",
		PaperClaim: "gather O(c²(k+log n)) periods [Lemma 4.6]; spread O((D+k)·log n) rounds [Lemma 4.8]",
		Columns:    []string{"k", "gather-periods-used", "gather-budget", "spread-rounds-used", "spread-budget"},
	}
	const c = 1.6
	ks := []int{1, 2, 4, 8}
	if o.Quick {
		ks = []int{1, 2, 4}
	}
	type trial struct {
		gUsed, gBudget, sUsed, sBudget float64
	}
	res := collectTrials(o, len(ks), func(pi int, seed int64) trial {
		k := ks[pi]
		built, err := topology.Build("rgg", topology.Params{
			"n": 36, "side": 4.2, "c": c, "p": 0.5, "seed": float64(seed * 31337)})
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		a := core.Singleton(built.Dual.N(), sources(built.Dual.N(), k))
		gu, gb, su, sb := runStages(o, built.Dual, c, a, seed)
		return trial{gUsed: gu, gBudget: gb, sUsed: su, sBudget: sb}
	})
	for pi, k := range ks {
		var gUsed, gBudget, sUsed, sBudget float64
		for _, tr := range res[pi] {
			gUsed += tr.gUsed
			gBudget = tr.gBudget
			sUsed += tr.sUsed
			sBudget = tr.sBudget
		}
		gUsed /= float64(o.Trials)
		sUsed /= float64(o.Trials)
		t.AddRow(fmt.Sprint(k), ticksStr(gUsed), ticksStr(gBudget), ticksStr(sUsed), ticksStr(sBudget))
	}
	t.AddNote("used ≤ budget in every row confirms the lemmas' schedules suffice")
	return t
}

// sources spreads k message origins evenly over the n nodes.
func sources(n, k int) []graph.NodeID {
	out := make([]graph.NodeID, k)
	for i := range out {
		out[i] = graph.NodeID(i * n / k)
	}
	return out
}
