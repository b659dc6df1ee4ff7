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
	// are grown here, before any worker starts: growing them inside a
	// worker would race.
	workers := par.Workers(cfg.Options.Shards, nComps)
	for len(r.slots) < workers {
		r.slots = append(r.slots, newSlot(r.dual))
	}

	// results[c] and events[c] are what component c leaves behind once its
	// slot moves on: the scalar outcome and a copy of its trace (nil under
	// TraceOff), time-ordered within the component.
	results := make([]*Result, nComps)
	events := make([][]sim.TraceEvent, nComps)
	par.ForWorker(workers, nComps, func(w, c int) {
		if reqByComp[c] == 0 && cfg.HaltOnCompletion {
			// A component with no required deliveries is complete before
			// its first event; under HaltOnCompletion the execution halts
			// at that moment, i.e. contributes nothing. Without the halt
			// flag it runs to quiescence like every other component.
			return
		}
		s := r.slots[w]
		// The merge needs every component's events before the sink sees
		// any, so shards record into their slot's trace unless tracing is
		// off.
		var sink sim.TraceSink
		if cfg.Options.Trace != TraceOff {
			sink = &s.trace
		}
		results[c] = s.run(cfg, cfg.NewScheduler(), sink,
			nodesByComp[off[c]:off[c+1]], arrByComp[c], reqByComp[c], compOf)
		if sink != nil {
			events[c] = append([]sim.TraceEvent(nil), s.trace.Events()...)
		}
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
		mergeTraces(events, res.Trace)
	case TraceStream:
		// The sink observes the merged order, exactly as a memory-mode run
		// would record it.
		mergeTraces(events, cfg.Options.Sink)
	}
	return res
}

// mergeTraces k-way merges the per-component event streams into sink,
// ordered by (At, component index) — a deterministic total order because
// each component's stream is already time-ordered.
func mergeTraces(events [][]sim.TraceEvent, sink sim.TraceSink) {
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
	heap := make([]head, 0, len(events))
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
	for c, evs := range events {
		if len(evs) > 0 {
			push(head{at: evs[0].At, comp: c, idx: 0})
		}
	}
	for len(heap) > 0 {
		h := heap[0]
		evs := events[h.comp]
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
