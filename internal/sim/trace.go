package sim

import (
	"fmt"
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

// Trace accumulates TraceEvents in execution order, in memory. The zero
// value is ready to use.
type Trace struct {
	events []TraceEvent
}

// Reset discards the recorded events while keeping the buffer capacity, so a
// reused trace appends without reallocating. Retained payload references are
// zeroed for the collector.
func (tr *Trace) Reset() {
	clear(tr.events)
	tr.events = tr.events[:0]
}

// Grow makes room for n more events, so the next n appends do not
// reallocate. It allocates the new buffer with make and copies, rather
// than calling slices.Grow, whose append of a made slice allocates that
// slice too under the race detector's instrumentation.
func (tr *Trace) Grow(n int) {
	if cap(tr.events)-len(tr.events) < n {
		events := make([]TraceEvent, len(tr.events), len(tr.events)+n)
		copy(events, tr.events)
		tr.events = events
	}
}

// Append records an event.
func (tr *Trace) Append(ev TraceEvent) { tr.events = append(tr.events, ev) }

// Events returns the recorded events in order. The returned slice is owned
// by the trace; callers must not mutate it.
func (tr *Trace) Events() []TraceEvent { return tr.events }

// Len reports the number of recorded events.
func (tr *Trace) Len() int { return len(tr.events) }

// Filter returns the recorded events with the given kind.
func (tr *Trace) Filter(kind string) []TraceEvent {
	var out []TraceEvent
	for _, ev := range tr.events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// String renders the whole trace, one event per line.
func (tr *Trace) String() string {
	var b strings.Builder
	for _, ev := range tr.events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
