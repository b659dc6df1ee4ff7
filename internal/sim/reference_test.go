package sim

import (
	"bufio"
	"encoding/binary"
	"io"
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
