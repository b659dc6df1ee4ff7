package sim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// traceMagic opens every binary trace stream; the trailing byte is the
// format version.
var traceMagic = [5]byte{'A', 'M', 'T', 'R', 1}

// TraceWriter is a TraceSink that streams events to an io.Writer in a
// compact binary encoding: varint-coded times and operands with kind
// strings interned on first use, a few bytes per event instead of a
// Trace's 40-byte record. On the single-engine executor that is the
// backend that lets million-node floods trace to disk instead of RAM; the
// decomposed executor still holds every component's events in a Trace of
// its own until MergeTraces feeds them here in order. Append
// encodes straight into the writer's own 64 KiB buffer, which goes to the
// io.Writer only when full, and allocates nothing in steady state; errors
// are latched (Append becomes a no-op after the first failure) and
// reported by Err and Flush, keeping error handling off the engine's emit
// path.
//
// Payloads are encoded by kind tag and scalar operands, reconstructed on
// read through the same registered boxers. Each event ends in a flag byte
// that is always 0: version 1 streams once used it to carry a rendered
// boxed value, and the byte stays so the encoding is unchanged.
type TraceWriter struct {
	w   io.Writer
	buf []byte
	// kinds lists the interned kind strings by id; Append finds an
	// event's with kindIndex, as a Trace does.
	kinds []string
	n     int
	err   error
}

const (
	// traceBufSize is the capacity of a TraceWriter's buffer.
	traceBufSize = 1 << 16
	// maxEventSize bounds the encoding of one event whose kind is already
	// interned: six varints and two bytes.
	maxEventSize = 6*binary.MaxVarintLen64 + 2
)

// NewTraceWriter returns a writer streaming to w. Call Flush before
// consuming the underlying stream.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{w: w, buf: make([]byte, 0, traceBufSize)}
	tw.buf = append(tw.buf, traceMagic[:]...)
	return tw
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Append implements TraceSink.
//
//amac:hotpath
func (tw *TraceWriter) Append(ev TraceEvent) {
	if tw.err != nil {
		return
	}
	id := kindIndex(tw.kinds, ev.Kind)
	known := id >= 0
	need := maxEventSize
	if !known {
		need += binary.MaxVarintLen64 + len(ev.Kind)
	}
	if len(tw.buf)+need > cap(tw.buf) && len(tw.buf) > 0 {
		if tw.write(); tw.err != nil {
			return
		}
	}
	b := binary.AppendUvarint(tw.buf, zigzag(int64(ev.At)))
	if known {
		b = binary.AppendUvarint(b, uint64(id))
	} else {
		// A kind id equal to the intern-table size announces a new string.
		b = binary.AppendUvarint(b, uint64(len(tw.kinds)))
		tw.kinds = append(tw.kinds, ev.Kind)
		b = binary.AppendUvarint(b, uint64(len(ev.Kind)))
		b = append(b, ev.Kind...)
	}
	b = binary.AppendUvarint(b, zigzag(int64(ev.Node)))
	b = append(b, byte(ev.P.Kind))
	b = binary.AppendUvarint(b, zigzag(ev.P.A))
	b = binary.AppendUvarint(b, zigzag(ev.P.B))
	b = binary.AppendUvarint(b, zigzag(ev.P.C))
	tw.buf = append(b, 0) // the retired boxed-value flag
	tw.n++
}

// write hands the buffered bytes to the underlying writer, latching its
// error.
func (tw *TraceWriter) write() {
	n, err := tw.w.Write(tw.buf)
	if err == nil && n < len(tw.buf) {
		err = io.ErrShortWrite
	}
	tw.err = err
	tw.buf = tw.buf[:0]
}

// Len reports how many events were accepted.
func (tw *TraceWriter) Len() int { return tw.n }

// Err returns the first write error, if any.
func (tw *TraceWriter) Err() error { return tw.err }

// Flush drains the buffer to the underlying writer and returns the first
// error encountered over the writer's lifetime.
func (tw *TraceWriter) Flush() error {
	if tw.err == nil && len(tw.buf) > 0 {
		tw.write()
	}
	return tw.err
}

// TraceReader decodes a stream produced by TraceWriter.
type TraceReader struct {
	r     *bufio.Reader
	kinds []string
}

// NewTraceReader wraps r, validating the stream header.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	tr := &TraceReader{r: bufio.NewReaderSize(r, 1<<16)}
	var magic [5]byte
	if _, err := io.ReadFull(tr.r, magic[:]); err != nil {
		return nil, fmt.Errorf("sim: trace header: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("sim: not a binary trace (bad magic %q)", magic[:])
	}
	return tr, nil
}

// Next returns the next event, or io.EOF at a clean end of stream.
func (tr *TraceReader) Next() (TraceEvent, error) {
	ev, _, err := tr.next()
	return ev, err
}

// next returns the next event together with its kind id, which indexes
// the stream's kind table.
func (tr *TraceReader) next() (TraceEvent, uint64, error) {
	at, err := binary.ReadUvarint(tr.r)
	if err != nil {
		if err == io.EOF {
			return TraceEvent{}, 0, io.EOF
		}
		return TraceEvent{}, 0, fmt.Errorf("sim: trace event time: %w", err)
	}
	var ev TraceEvent
	ev.At = Time(unzigzag(at))
	id, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return TraceEvent{}, 0, fmt.Errorf("sim: trace kind id: %w", err)
	}
	switch {
	case id < uint64(len(tr.kinds)):
		ev.Kind = tr.kinds[id]
	case id == uint64(len(tr.kinds)):
		s, err := tr.readString()
		if err != nil {
			return TraceEvent{}, 0, fmt.Errorf("sim: trace kind string: %w", err)
		}
		tr.kinds = append(tr.kinds, s)
		ev.Kind = s
	default:
		return TraceEvent{}, 0, fmt.Errorf("sim: trace kind id %d out of range", id)
	}
	node, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return TraceEvent{}, 0, fmt.Errorf("sim: trace node: %w", err)
	}
	ev.Node = int(unzigzag(node))
	pk, err := tr.r.ReadByte()
	if err != nil {
		return TraceEvent{}, 0, fmt.Errorf("sim: trace payload kind: %w", err)
	}
	ev.P.Kind = PayloadKind(pk)
	if !ev.P.Kind.registered() {
		return TraceEvent{}, 0, fmt.Errorf("sim: trace payload kind %d is not registered", pk)
	}
	for _, dst := range []*int64{&ev.P.A, &ev.P.B, &ev.P.C} {
		u, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return TraceEvent{}, 0, fmt.Errorf("sim: trace payload operand: %w", err)
		}
		*dst = unzigzag(u)
	}
	extFlag, err := tr.r.ReadByte()
	if err != nil {
		return TraceEvent{}, 0, fmt.Errorf("sim: trace ext flag: %w", err)
	}
	if extFlag != 0 {
		return TraceEvent{}, 0, fmt.Errorf("sim: trace carries a boxed payload value (ext flag %d), which is no longer supported", extFlag)
	}
	return ev, id, nil
}

// readString decodes a length-prefixed string. The length comes from the
// stream, so it is never trusted for an allocation: the bytes are copied as
// they arrive, and a length past the end of the stream costs only the bytes
// actually present before the short read fails.
func (tr *TraceReader) readString() (string, error) {
	n, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return "", err
	}
	if n > math.MaxInt64 {
		return "", fmt.Errorf("string length %d overflows int64", n)
	}
	var sb strings.Builder
	if _, err := io.CopyN(&sb, tr.r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	return sb.String(), nil
}

// ReadAll drains the stream into an in-memory Trace (golden-suite
// verification and small post-hoc analyses; large traces should be
// consumed through Next). The trace takes the stream's kind table, so a
// stream it cannot hold — more kinds than a Trace indexes, or a node id
// past int32 — is an error, not a panic or a truncated record.
func (tr *TraceReader) ReadAll() (*Trace, error) {
	out := &Trace{}
	for {
		ev, id, err := tr.next()
		if err == io.EOF {
			out.kinds = slices.Clone(tr.kinds)
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if id >= maxTraceKinds {
			return nil, fmt.Errorf("sim: trace kind id %d: an in-memory trace holds at most %d kinds", id, maxTraceKinds)
		}
		if ev.Node != int(int32(ev.Node)) {
			return nil, fmt.Errorf("sim: trace node %d does not fit an in-memory trace", ev.Node)
		}
		out.put(ev, uint16(id))
	}
}
