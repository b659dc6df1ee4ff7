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

// compResult is what one component shard's execution leaves behind after
// its pooled engine has been recycled for the worker's next component.
type compResult struct {
	delivered  int
	solved     bool
	completion sim.Time
	end        sim.Time
	steps      uint64
	broadcasts int
	violations []string
	report     *check.Report
	// events is the component's trace, copied out of the pooled engine
	// (empty under TraceOff). Within a component events are time-ordered.
	events []sim.TraceEvent
}

func (r *Runner) runSharded(cfg RunConfig, gpOf, gpSizes []int) (*Result, error) {
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

	// One warm arena and trace buffer per worker, all arenas sharing the
	// network's CSR position index; a worker's arena and buffer serve its
	// components one after another.
	workers := par.Workers(cfg.Options.Shards, nComps)
	arenas := make([]*mac.Arena, workers)
	for w := range arenas {
		arenas[w] = r.arena.Fork()
	}
	traces := make([]sim.Trace, workers)

	results := make([]compResult, nComps)
	par.ForWorker(workers, nComps, func(w, c int) {
		if reqByComp[c] == 0 && cfg.HaltOnCompletion {
			// A component with no required deliveries is complete before
			// its first event; under HaltOnCompletion the execution halts
			// at that moment, i.e. contributes nothing. Without the halt
			// flag it runs to quiescence like every other component.
			return
		}
		results[c] = runComponent(cfg, arenas[w], &traces[w],
			nodesByComp[off[c]:off[c+1]], arrByComp[c], reqByComp[c], compOf)
	})

	// Merge in component order.
	res := &Result{Required: required}
	solved := required > 0
	for c := range results {
		cr := &results[c]
		res.Delivered += cr.delivered
		res.Steps += cr.steps
		res.Broadcasts += cr.broadcasts
		res.MMBViolations = append(res.MMBViolations, cr.violations...)
		if cr.end > res.End {
			res.End = cr.end
		}
		if reqByComp[c] > 0 {
			solved = solved && cr.solved
			if cr.completion > res.CompletionTime {
				res.CompletionTime = cr.completion
			}
		}
	}
	res.Solved = solved
	if !solved {
		res.CompletionTime = 0
	}
	if cfg.Options.Check {
		res.Report = &check.Report{}
		for c := range results {
			if r := results[c].report; r != nil {
				res.Report.Violations = append(res.Report.Violations, r.Violations...)
			}
		}
	}

	// Merge the per-component traces by (time, component): concurrent
	// events order by component index, events within a component keep
	// their execution order.
	switch cfg.Options.Trace {
	case TraceMemory:
		res.Trace = &sim.Trace{}
		mergeTraces(results, res.Trace)
	case TraceStream:
		// Per-component traces are buffered in memory during the run (the
		// merge needs every component's stream); the sink observes the
		// merged order, exactly as a memory-mode run would record it.
		mergeTraces(results, cfg.Options.Sink)
	}
	return res, nil
}

// runComponent executes the nodes of one G′ component on a fresh engine
// acquisition from the worker's arena, recording into the worker's trace
// buffer unless tracing is off, and copies everything the merge needs out
// of the pooled state.
func runComponent(cfg RunConfig, arena *mac.Arena, trace *sim.Trace, nodes []mac.NodeID, arrivals []Arrival, required int, compOf []int) compResult {
	mcfg := mac.Config{
		Dual:      cfg.Dual,
		Fack:      cfg.Fack,
		Fprog:     cfg.Fprog,
		Scheduler: cfg.NewScheduler(),
		Mode:      cfg.Mode,
		Seed:      cfg.Seed,
		EpsAbort:  cfg.EpsAbort,
		Arena:     arena,
	}
	if cfg.Options.Trace != TraceOff {
		trace.Reset()
		mcfg.Trace = trace
	}
	eng := mac.NewEngine(mcfg, cfg.Automata)

	res := &Result{Required: required}
	st := runState{
		res:      res,
		eng:      eng,
		compOf:   compOf,
		required: required,
		halt:     cfg.HaltOnCompletion,
		seen:     make(map[deliverKey]bool, required),
		arrived:  make(map[Msg]bool, len(arrivals)),
	}
	eng.Watch(st.onEvent)

	eng.StartNodes(nodes)
	for _, ar := range arrivals {
		eng.Arrive(ar.Node, ar.Msg.Payload(), ar.At)
	}
	eng.Sim().SetHorizon(cfg.Horizon)
	eng.Sim().SetStepLimit(cfg.StepLimit)
	eng.Run()

	cr := compResult{
		delivered:  res.Delivered,
		solved:     res.Solved,
		completion: res.CompletionTime,
		end:        eng.Sim().Now(),
		steps:      eng.Sim().Steps(),
		broadcasts: len(eng.Instances()),
		violations: res.MMBViolations,
	}
	if cfg.Options.Trace != TraceOff {
		cr.events = append(cr.events, trace.Events()...)
	}
	if cfg.Options.Check {
		cr.report = check.All(cfg.Dual, eng.Instances(), check.Params{
			Fack:     cfg.Fack,
			Fprog:    cfg.Fprog,
			EpsAbort: cfg.EpsAbort,
			End:      cr.end,
		})
		check.MMB(cr.report, cr.events, check.MMBParams{DeliverKind: DeliverKind})
	}
	return cr
}

// mergeTraces k-way merges the per-component event streams into sink,
// ordered by (At, component index) — a deterministic total order because
// each component's stream is already time-ordered.
func mergeTraces(results []compResult, sink sim.TraceSink) {
	// Binary min-heap of stream heads, keyed (At, comp).
	type head struct {
		at   sim.Time
		comp int
		idx  int
	}
	less := func(a, b head) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.comp < b.comp
	}
	heap := make([]head, 0, len(results))
	push := func(h head) {
		heap = append(heap, h)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for c := range results {
		if evs := results[c].events; len(evs) > 0 {
			push(head{at: evs[0].At, comp: c, idx: 0})
		}
	}
	for len(heap) > 0 {
		h := heap[0]
		evs := results[h.comp].events
		sink.Append(evs[h.idx])
		if h.idx+1 < len(evs) {
			heap[0] = head{at: evs[h.idx+1].At, comp: h.comp, idx: h.idx + 1}
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown()
	}
}
