package sim

import (
	"fmt"
	"math"
	"strings"
)

// TraceEvent is one record in an execution trace. Kind is a small string
// vocabulary owned by the layer that emits the event (the MAC engine emits
// "bcast", "rcv", "ack", "abort"; algorithms may emit their own kinds).
// The argument travels as a typed Payload so recording an event allocates
// nothing; Value recovers the dynamic value for consumers that want the old
// boxed form.
type TraceEvent struct {
	At   Time
	Kind string
	Node int
	P    Payload
}

// Value boxes the event's argument back into its dynamic Go value. It
// allocates; post-run consumers only.
func (ev TraceEvent) Value() any { return ev.P.Value() }

// String renders the event compactly for debugging output.
func (ev TraceEvent) String() string {
	return fmt.Sprintf("%v %s@%d %v", ev.At, ev.Kind, ev.Node, ev.Value())
}

// TraceSink consumes trace events in execution order as a layer emits them.
// The in-memory Trace is one implementation; TraceWriter streams events to
// disk in a compact binary form for networks whose full trace cannot be
// held in memory (a 10^6-node flood emits tens of millions of events).
// Sinks are called from the single-threaded engine loop and need no
// internal synchronization.
type TraceSink interface {
	Append(ev TraceEvent)
}

const (
	// traceBlockLen is the number of records in one trace block (40 KiB).
	traceBlockLen = 1024
	// maxTraceKinds is the most distinct kinds one Trace holds, the values
	// record.kind can take.
	maxTraceKinds = math.MaxUint16 + 1
)

// record is a TraceEvent as a Trace keeps it: the event's fields with the
// node narrowed to int32 (node ids index in-memory arrays of n entries) and
// the kind string replaced by an index into the trace's kind table — 40
// bytes and no pointer, so a block holds nothing the collector scans.
type record struct {
	at      Time
	node    int32
	kind    uint16
	tag     PayloadKind
	a, b, c int64
}

type traceBlock [traceBlockLen]record

// Trace accumulates events in execution order, in memory, as 40-byte
// records in blocks of 1,024: growing allocates a block and never copies a
// record, and Reset keeps the blocks, so a reused trace appends without
// allocating. Each trace has its own kind table and holds at most 65,536
// distinct kinds, and keeps node ids as int32. The zero value is ready to
// use.
type Trace struct {
	blocks []*traceBlock
	n      int // records held
	// kinds is the trace's kind table, which record.kind indexes.
	kinds []string
}

// Reset discards the recorded events and the kind table while keeping the
// blocks.
func (tr *Trace) Reset() {
	clear(tr.kinds)
	tr.kinds = tr.kinds[:0]
	tr.n = 0
}

// Append records an event. A kind past the 65,536th panics rather than
// mislabel events.
//
//amac:hotpath
func (tr *Trace) Append(ev TraceEvent) {
	k := kindIndex(tr.kinds, ev.Kind)
	if k < 0 {
		k = tr.addKind(ev.Kind)
	}
	tr.put(ev, uint16(k))
}

// put records ev with kind table index k.
//
//amac:hotpath
func (tr *Trace) put(ev TraceEvent, k uint16) {
	if tr.n == len(tr.blocks)*traceBlockLen {
		tr.blocks = append(tr.blocks, new(traceBlock)) //lint:hotalloc block grow: one per 1,024 records, and none once a reused trace holds its run's blocks
	}
	tr.blocks[tr.n/traceBlockLen][tr.n%traceBlockLen] = record{
		at: ev.At, node: int32(ev.Node), kind: k, tag: ev.P.Kind,
		a: ev.P.A, b: ev.P.B, c: ev.P.C,
	}
	tr.n++
}

// addKind appends kind to the kind table and returns its index.
func (tr *Trace) addKind(kind string) int {
	if len(tr.kinds) == maxTraceKinds {
		panic(fmt.Sprintf("sim: a trace holds at most %d event kinds", maxTraceKinds))
	}
	tr.kinds = append(tr.kinds, kind)
	return len(tr.kinds) - 1
}

// kindIndex returns kind's index in kinds, or -1 when it has none. A
// trace's or a stream's vocabulary is a handful of kinds, so a scan finds
// it; the scan compares lengths before bytes and hashes nothing.
func kindIndex(kinds []string, kind string) int {
	for i, k := range kinds {
		if k == kind {
			return i
		}
	}
	return -1
}

func (tr *Trace) at(i int) Time {
	return tr.blocks[i/traceBlockLen][i%traceBlockLen].at
}

// event turns record i back into the TraceEvent it was recorded from.
func (tr *Trace) event(i int) TraceEvent {
	r := &tr.blocks[i/traceBlockLen][i%traceBlockLen]
	return TraceEvent{
		At:   r.at,
		Kind: tr.kinds[r.kind],
		Node: int(r.node),
		P:    Payload{Kind: r.tag, A: r.a, B: r.b, C: r.c},
	}
}

// Events returns the recorded events in order, in a fresh slice the caller
// owns.
func (tr *Trace) Events() []TraceEvent {
	out := make([]TraceEvent, tr.n)
	for i := range out {
		out[i] = tr.event(i)
	}
	return out
}

// Len reports the number of recorded events.
func (tr *Trace) Len() int { return tr.n }

// Filter returns the recorded events with the given kind.
func (tr *Trace) Filter(kind string) []TraceEvent {
	var out []TraceEvent
	for i := 0; i < tr.n; i++ {
		if ev := tr.event(i); ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// String renders the whole trace, one event per line.
func (tr *Trace) String() string {
	var b strings.Builder
	for i := 0; i < tr.n; i++ {
		b.WriteString(tr.event(i).String())
		b.WriteByte('\n')
	}
	return b.String()
}

// MergeTraces k-way merges traces into sink, ordered by (time, index in
// traces) — a deterministic total order when each trace is time-ordered, as
// an engine's trace is. A trace's consecutive events at one time are a run:
// no other trace's event falls inside it, so each heap operation hands a
// whole run to the sink.
func MergeTraces(traces []*Trace, sink TraceSink) {
	// Binary min-heap of the traces' next runs, keyed (at, trace).
	type head struct {
		at   Time
		tr   int
		next int // index of the run's first record
	}
	less := func(a, b head) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.tr < b.tr
	}
	heap := make([]head, 0, len(traces))
	for i, tr := range traces {
		if tr.n > 0 {
			heap = append(heap, head{at: tr.at(0), tr: i})
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
		tr := traces[h.tr]
		i, n := h.next, tr.n
		for ; i < n && tr.at(i) == h.at; i++ {
			sink.Append(tr.event(i))
		}
		if i < n {
			h.at, h.next = tr.at(i), i
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
}
