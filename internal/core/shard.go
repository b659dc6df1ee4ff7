package core

import (
	"fmt"
	"math"
	"sync"

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
	// and recorders are grown here, before any worker starts: growing them
	// inside a worker would race. Every recorder is reset here too, so a
	// component skipped below, or one left over from a larger network,
	// contributes nothing to the merge.
	workers := par.Workers(cfg.Options.Shards, nComps)
	for len(r.slots) < workers {
		r.slots = append(r.slots, newSlot(r.dual))
	}
	for len(r.recs) < nComps {
		r.recs = append(r.recs, recorder{pool: &r.blocks})
	}
	for i := range r.recs {
		r.recs[i].reset()
	}
	recs := r.recs[:nComps]

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
			sink = &recs[c]
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
		total := 0
		for c := range recs {
			total += recs[c].n
		}
		res.Trace.Grow(total)
		mergeTraces(recs, res.Trace)
	case TraceStream:
		// The sink observes the merged order, exactly as a memory-mode run
		// would record it.
		mergeTraces(recs, cfg.Options.Sink)
	}
	return res
}

// mergeTraces k-way merges the component recorders into sink, ordered by
// (time, component index) — a deterministic total order because each
// recorder is time-ordered. A component's consecutive events at one time
// are a run: no other component's event falls inside it, so each heap
// operation hands a whole run to the sink.
func mergeTraces(recs []recorder, sink sim.TraceSink) {
	// Binary min-heap of the components' next runs, keyed (at, comp).
	type head struct {
		at   sim.Time
		comp int
		next int // index of the run's first record
	}
	less := func(a, b head) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.comp < b.comp
	}
	heap := make([]head, 0, len(recs))
	for c := range recs {
		if recs[c].n > 0 {
			heap = append(heap, head{at: recs[c].at(0), comp: c})
		}
	}
	siftDown := func(i int) {
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
	for i := len(heap)/2 - 1; i >= 0; i-- { // heapify the first runs
		siftDown(i)
	}
	for len(heap) > 0 {
		h := &heap[0]
		rc := &recs[h.comp]
		i, n := h.next, rc.n
		for ; i < n && rc.at(i) == h.at; i++ {
			sink.Append(rc.event(i))
		}
		if i < n {
			h.at, h.next = rc.at(i), i
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
}

// recordBlockLen is the number of records in one pooled block (40 KiB).
const recordBlockLen = 1024

// record is a trace event as a component recorder keeps it: the
// TraceEvent's fields with the node narrowed to int32 (node ids index
// in-memory arrays of n entries) and the kind string replaced by an index
// into the recorder's kind table — 40 bytes and no pointer, so a block
// holds nothing the collector scans.
type record struct {
	at      sim.Time
	node    int32
	kind    uint8
	tag     sim.PayloadKind
	a, b, c int64
}

type recordBlock [recordBlockLen]record

// blockPool is the Runner's free list of record blocks. Blocks stay in it
// across components and runs, so a warm sharded run records without
// allocating; a lock guards it because concurrent workers draw from it.
type blockPool struct {
	mu   sync.Mutex
	free []*recordBlock
}

func (p *blockPool) get() *recordBlock {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return new(recordBlock)
}

// recorder is the sim.TraceSink a G′ component's engine records into on
// the sharded executor: records fill fixed-size blocks drawn from the
// Runner's pool, so growth never copies a record, and reset hands the
// blocks back.
type recorder struct {
	pool   *blockPool
	blocks []*recordBlock
	n      int // records held
	// kinds is the component's kind table, which record.kind indexes.
	kinds []string
}

// Append implements sim.TraceSink.
//
//amac:hotpath
func (rc *recorder) Append(ev sim.TraceEvent) {
	if rc.n == len(rc.blocks)*recordBlockLen {
		rc.blocks = append(rc.blocks, rc.pool.get())
	}
	rc.blocks[rc.n/recordBlockLen][rc.n%recordBlockLen] = record{
		at: ev.At, node: int32(ev.Node), kind: rc.kindIndex(ev.Kind), tag: ev.P.Kind,
		a: ev.P.A, b: ev.P.B, c: ev.P.C,
	}
	rc.n++
}

// kindIndex returns kind's index in the kind table, adding it when new. A
// component's vocabulary is a handful of kinds, so a scan finds it; one
// past what record.kind holds panics rather than wraps.
func (rc *recorder) kindIndex(kind string) uint8 {
	for i, k := range rc.kinds {
		if k == kind {
			return uint8(i)
		}
	}
	if len(rc.kinds) > math.MaxUint8 {
		panic(fmt.Sprintf("core: a component emitted more than %d trace event kinds", math.MaxUint8+1))
	}
	rc.kinds = append(rc.kinds, kind)
	return uint8(len(rc.kinds) - 1)
}

func (rc *recorder) at(i int) sim.Time {
	return rc.blocks[i/recordBlockLen][i%recordBlockLen].at
}

// event turns record i back into the TraceEvent it was recorded from.
func (rc *recorder) event(i int) sim.TraceEvent {
	r := &rc.blocks[i/recordBlockLen][i%recordBlockLen]
	return sim.TraceEvent{
		At:   r.at,
		Kind: rc.kinds[r.kind],
		Node: int(r.node),
		P:    sim.Payload{Kind: r.tag, A: r.a, B: r.b, C: r.c},
	}
}

// reset empties the recorder and returns its blocks to the pool.
func (rc *recorder) reset() {
	rc.pool.mu.Lock()
	rc.pool.free = append(rc.pool.free, rc.blocks...)
	rc.pool.mu.Unlock()
	clear(rc.blocks)
	rc.blocks = rc.blocks[:0]
	clear(rc.kinds)
	rc.kinds = rc.kinds[:0]
	rc.n = 0
}
