package core

import (
	"amac/internal/check"
	"amac/internal/mac"
	"amac/internal/par"
	"amac/internal/sim"
)

// The component-sharded executor: Options.Shards >= 1 on a network whose G′
// decomposes. Deliveries travel only over G′ edges, so the executions of
// distinct G′ components share no events at all — each component runs on
// its own engine (full-network node-state arrays, so node v's per-node
// random stream is Fork(v) exactly as in a single-engine run), at most
// Options.Shards of them concurrently, and the per-component traces and
// results are merged in component order afterwards. The merged output is a
// pure function of the configuration: identical at every shard count and at
// every worker schedule, pinned by TestShardedDeterminism and the golden
// suite.

func (r *Runner) runSharded(cfg RunConfig, gpOf, gpSizes []int) *Result {
	n := cfg.Dual.N()
	nComps := len(gpSizes)

	// Required-delivery accounting runs on G components (each lies inside
	// exactly one G′ component, since G ⊆ G′).
	compOf, compSizes := r.compOf, r.compSizes

	// Bucket nodes by G′ component, ascending id within each — the wake-up
	// order each shard engine starts its nodes in.
	off := make([]int, nComps+1)
	for _, c := range gpOf {
		off[c+1]++
	}
	for c := 0; c < nComps; c++ {
		off[c+1] += off[c]
	}
	nodesByComp := make([]mac.NodeID, n)
	cursor := append([]int(nil), off[:nComps]...)
	for v := 0; v < n; v++ {
		c := gpOf[v]
		nodesByComp[cursor[c]] = mac.NodeID(v)
		cursor[c]++
	}

	// Bucket arrivals (workload order preserved) and required-delivery
	// counts by component.
	arrivals := cfg.Workload.Arrivals()
	arrByComp := make([][]Arrival, nComps)
	reqByComp := make([]int, nComps)
	required := 0
	for _, ar := range arrivals {
		c := gpOf[ar.Msg.Origin]
		arrByComp[c] = append(arrByComp[c], ar)
		req := compSizes[compOf[ar.Msg.Origin]]
		reqByComp[c] += req
		required += req
	}

	// Worker w runs its components one after another on slot w. The slots
	// and component traces are grown here, before any worker starts:
	// growing them inside a worker would race. Every component trace is
	// reset here too, so a component skipped below contributes nothing to
	// the merge.
	workers := par.Workers(cfg.Options.Shards, nComps)
	for len(r.slots) < workers {
		r.slots = append(r.slots, newSlot(r.dual))
	}
	for len(r.recs) < nComps {
		r.recs = append(r.recs, new(sim.Trace))
	}
	recs := r.recs[:nComps]
	for _, tr := range recs {
		tr.Reset()
	}

	// results[c] is component c's scalar outcome; its events stay in
	// recs[c], time-ordered within the component, until the merge.
	results := make([]*Result, nComps)
	par.ForWorker(workers, nComps, func(w, c int) {
		if reqByComp[c] == 0 && cfg.HaltOnCompletion {
			// A component with no required deliveries is complete before
			// its first event; under HaltOnCompletion the execution halts
			// at that moment, i.e. contributes nothing. Without the halt
			// flag it runs to quiescence like every other component.
			return
		}
		// The merge needs every component's events before the sink sees
		// any, so components record unless tracing is off.
		var sink sim.TraceSink
		if cfg.Options.Trace != TraceOff {
			sink = recs[c]
		}
		results[c] = r.slots[w].run(cfg, cfg.NewScheduler(), sink,
			nodesByComp[off[c]:off[c+1]], arrByComp[c], reqByComp[c], compOf)
	})

	// Merge in component order.
	res := &Result{Required: required}
	solved := required > 0
	for c, cr := range results {
		if cr == nil {
			continue
		}
		res.Delivered += cr.Delivered
		res.Steps += cr.Steps
		res.Broadcasts += cr.Broadcasts
		res.MMBViolations = append(res.MMBViolations, cr.MMBViolations...)
		if cr.End > res.End {
			res.End = cr.End
		}
		if reqByComp[c] > 0 {
			solved = solved && cr.Solved
			if cr.CompletionTime > res.CompletionTime {
				res.CompletionTime = cr.CompletionTime
			}
		}
	}
	res.Solved = solved
	if !solved {
		res.CompletionTime = 0
	}
	if cfg.Options.Check {
		res.Report = &check.Report{}
		for _, cr := range results {
			if cr != nil && cr.Report != nil {
				res.Report.Violations = append(res.Report.Violations, cr.Report.Violations...)
			}
		}
	}

	// Merge the per-component traces by (time, component): concurrent
	// events order by component index, events within a component keep
	// their execution order.
	switch cfg.Options.Trace {
	case TraceMemory:
		res.Trace = &sim.Trace{}
		sim.MergeTraces(recs, res.Trace)
	case TraceStream:
		// The sink observes the merged order, exactly as a memory-mode run
		// would record it.
		sim.MergeTraces(recs, cfg.Options.Sink)
	}
	return res
}
