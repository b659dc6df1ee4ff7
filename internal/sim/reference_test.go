package sim

import (
	"bufio"
	"encoding/binary"
	"io"
	"strings"
)

// This file keeps TraceWriter as it was before it encoded into its own
// buffer: a map from kind string to id, each event encoded into scratch
// and copied into a bufio.Writer. Only the names changed.
// FuzzTraceWriterMatchesReference holds the writer to it: equal bytes and
// an equal Len.

type refTraceWriter struct {
	w       *bufio.Writer
	kinds   map[string]uint64
	scratch []byte
	n       int
	err     error
}

func newRefTraceWriter(w io.Writer) *refTraceWriter {
	tw := &refTraceWriter{
		w:       bufio.NewWriterSize(w, 1<<16),
		kinds:   make(map[string]uint64),
		scratch: make([]byte, 0, 64),
	}
	_, err := tw.w.Write(traceMagic[:])
	tw.err = err
	return tw
}

func (tw *refTraceWriter) Append(ev TraceEvent) {
	if tw.err != nil {
		return
	}
	b := tw.scratch[:0]
	b = binary.AppendUvarint(b, zigzag(int64(ev.At)))
	id, ok := tw.kinds[ev.Kind]
	if !ok {
		// A kind id equal to the intern-table size announces a new string.
		id = uint64(len(tw.kinds))
		tw.kinds[ev.Kind] = id
		b = binary.AppendUvarint(b, id)
		b = binary.AppendUvarint(b, uint64(len(ev.Kind)))
		b = append(b, ev.Kind...)
	} else {
		b = binary.AppendUvarint(b, id)
	}
	b = binary.AppendUvarint(b, zigzag(int64(ev.Node)))
	b = append(b, byte(ev.P.Kind))
	b = binary.AppendUvarint(b, zigzag(ev.P.A))
	b = binary.AppendUvarint(b, zigzag(ev.P.B))
	b = binary.AppendUvarint(b, zigzag(ev.P.C))
	b = append(b, 0) // the retired boxed-value flag
	tw.scratch = b[:0]
	if _, err := tw.w.Write(b); err != nil {
		tw.err = err
		return
	}
	tw.n++
}

func (tw *refTraceWriter) Len() int { return tw.n }

func (tw *refTraceWriter) Err() error { return tw.err }

func (tw *refTraceWriter) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	tw.err = tw.w.Flush()
	return tw.err
}

// What follows is Trace as it was before it kept 40-byte records in
// blocks: one 64-byte TraceEvent per event in a growing slice. Only the
// names changed. FuzzTraceMatchesReference holds Trace and MergeTraces to
// it.

// refTrace accumulates TraceEvents in execution order, in memory. The zero
// value is ready to use.
type refTrace struct {
	events []TraceEvent
}

// Reset discards the recorded events while keeping the buffer capacity, so a
// reused trace appends without reallocating. Retained payload references are
// zeroed for the collector.
func (tr *refTrace) Reset() {
	clear(tr.events)
	tr.events = tr.events[:0]
}

// Grow makes room for n more events, so the next n appends do not
// reallocate. It allocates the new buffer with make and copies, rather
// than calling slices.Grow, whose append of a made slice allocates that
// slice too under the race detector's instrumentation.
func (tr *refTrace) Grow(n int) {
	if cap(tr.events)-len(tr.events) < n {
		events := make([]TraceEvent, len(tr.events), len(tr.events)+n)
		copy(events, tr.events)
		tr.events = events
	}
}

// Append records an event.
func (tr *refTrace) Append(ev TraceEvent) { tr.events = append(tr.events, ev) }

// Events returns the recorded events in order. The returned slice is owned
// by the trace; callers must not mutate it.
func (tr *refTrace) Events() []TraceEvent { return tr.events }

// Len reports the number of recorded events.
func (tr *refTrace) Len() int { return len(tr.events) }

// Filter returns the recorded events with the given kind.
func (tr *refTrace) Filter(kind string) []TraceEvent {
	var out []TraceEvent
	for _, ev := range tr.events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// String renders the whole trace, one event per line.
func (tr *refTrace) String() string {
	var b strings.Builder
	for _, ev := range tr.events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
