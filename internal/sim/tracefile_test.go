package sim

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// traceFixture returns events covering the encoder's cases: interned kind
// reuse, negative times and operands, every built-in payload kind, and a
// boxed Ext value that the writer demotes to its rendered string.
func traceFixture() []TraceEvent {
	return []TraceEvent{
		{At: 0, Kind: "bcast", Node: 0, P: Int(7)},
		{At: 3, Kind: "rcv", Node: 1, P: Payload{Kind: PayloadInt, A: -42}},
		{At: 3, Kind: "rcv", Node: 2, P: Int(7)},
		{At: -5, Kind: "ack", Node: -1, P: Payload{}},
		{At: 1 << 40, Kind: "bcast", Node: 999999, P: Payload{Kind: PayloadNone, A: 1, B: -2, C: 3}},
		{At: 9, Kind: "deliver", Node: 4, P: Ext("boxed message")},
		{At: 10, Kind: "deliver", Node: 5, P: Ext(struct{ X, Y int }{3, 4})},
		{At: 11, Kind: "rcv", Node: 6, P: Int(0)},
	}
}

// TestTraceFileRoundTrip writes the fixture and reads it back, comparing
// field-for-field. Ext payloads come back as their rendered string — the
// documented demotion — so for those the contract is rendering equality.
func TestTraceFileRoundTrip(t *testing.T) {
	events := traceFixture()
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, ev := range events {
		tw.Append(ev)
	}
	if tw.Len() != len(events) {
		t.Fatalf("writer Len = %d, want %d", tw.Len(), len(events))
	}
	if err := tw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i, want := range events {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got.String() != want.String() {
			t.Fatalf("event %d renders %q, want %q", i, got.String(), want.String())
		}
		if got.At != want.At || got.Kind != want.Kind || got.Node != want.Node {
			t.Fatalf("event %d header = %+v, want %+v", i, got, want)
		}
		if want.P.Ext == nil {
			if got.P != want.P {
				t.Fatalf("event %d payload = %+v, want %+v", i, got.P, want.P)
			}
		} else if got.P.Kind != PayloadExt {
			t.Fatalf("event %d: boxed payload read back as kind %d, want PayloadExt", i, got.P.Kind)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("after last event: err = %v, want io.EOF", err)
	}
}

// TestTraceReadAllMatchesTrace checks the drain helper against an in-memory
// trace fed the same events.
func TestTraceReadAllMatchesTrace(t *testing.T) {
	var mem Trace
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, ev := range traceFixture() {
		mem.Append(ev)
		tw.Append(ev)
	}
	if err := tw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got, err := tr.ReadAll()
	if err != nil {
		t.Fatalf("read all: %v", err)
	}
	if got.String() != mem.String() {
		t.Fatalf("decoded trace renders differently:\n%s\nwant:\n%s", got, &mem)
	}
}

func TestTraceReaderRejectsCorruptStreams(t *testing.T) {
	if _, err := NewTraceReader(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewTraceReader(strings.NewReader("AM")); err == nil {
		t.Fatal("truncated header accepted")
	}

	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Append(TraceEvent{At: 1, Kind: "bcast", Node: 2, P: Int(3)})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-event: the reader must surface an error, not EOF.
	trunc := buf.Bytes()[:buf.Len()-2]
	tr, err := NewTraceReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated event: err = %v, want a decode error", err)
	}

	// A kind id past the intern table is a corrupt stream.
	bad := append([]byte{}, traceMagic[:]...)
	bad = append(bad, 2, 9) // at = 1 zigzagged, kind id 9 with no announcements
	tr, err = NewTraceReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("rogue kind id: err = %v, want out-of-range error", err)
	}
}

// TestTraceReaderHugeStringLength is the regression test for a 13-byte
// stream that crashed the reader: a new kind string announcing a length of
// 2^62 made readString allocate the announced length up front and panic
// (makeslice: len out of range). It must be a decode error instead, and so
// must a length that overflows int64.
func TestTraceReaderHugeStringLength(t *testing.T) {
	for _, length := range []uint64{1 << 62, math.MaxUint64} {
		stream := append([]byte{}, traceMagic[:]...)
		stream = append(stream, 0, 0) // time 0, new kind id 0
		stream = binary.AppendUvarint(stream, length)
		tr, err := NewTraceReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Next(); err == nil || err == io.EOF {
			t.Fatalf("kind length %d: err = %v, want a decode error", length, err)
		}
	}
}

// FuzzTraceReader feeds arbitrary bytes to the trace decoder: however
// corrupt the stream, Next must return events or an error and never panic.
func FuzzTraceReader(f *testing.F) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, ev := range traceFixture() {
		tw.Append(ev)
	}
	if err := tw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	huge := append([]byte{}, traceMagic[:]...)
	huge = append(huge, 0, 0)
	f.Add(binary.AppendUvarint(huge, 1<<62))
	f.Fuzz(func(t *testing.T, stream []byte) {
		tr, err := NewTraceReader(bytes.NewReader(stream))
		if err != nil {
			return
		}
		// Every event consumes at least one byte, so a well-behaved
		// decoder ends within len(stream) calls.
		for i := 0; i <= len(stream); i++ {
			if _, err := tr.Next(); err != nil {
				return
			}
		}
		t.Fatalf("decoder returned more events than the %d-byte stream holds", len(stream))
	})
}

// failAfterWriter fails every Write once n bytes have passed through.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestTraceWriterLatchesErrors: after the sink fails, Append must become a
// no-op (the engine's emit path never sees the error) and Err/Flush must
// report the first failure.
func TestTraceWriterLatchesErrors(t *testing.T) {
	sinkErr := io.ErrClosedPipe
	tw := NewTraceWriter(&failAfterWriter{n: 1 << 10, err: sinkErr})
	// The buffer is 64 KiB, so spill it to surface the failure.
	big := TraceEvent{Kind: strings.Repeat("k", 1<<12), P: Int(1)}
	for i := 0; i < 32 && tw.Err() == nil; i++ {
		big.At = Time(i)
		big.Kind = strings.Repeat("k", 1<<12) + string(rune('a'+i)) // force re-interning
		tw.Append(big)
	}
	if tw.Err() != sinkErr {
		t.Fatalf("Err = %v, want %v", tw.Err(), sinkErr)
	}
	before := tw.Len()
	tw.Append(TraceEvent{Kind: "bcast"})
	if tw.Len() != before {
		t.Fatal("Append accepted an event after the sink failed")
	}
	if err := tw.Flush(); err != sinkErr {
		t.Fatalf("Flush = %v, want latched %v", err, sinkErr)
	}
}

// TestTraceWriterAppendAllocationFree pins the streaming contract that lets
// the engine emit straight to disk at million-node scale: once kinds are
// interned, Append with scalar payloads must not allocate.
func TestTraceWriterAppendAllocationFree(t *testing.T) {
	tw := NewTraceWriter(io.Discard)
	kinds := []string{"bcast", "rcv", "ack", "deliver"}
	for _, k := range kinds {
		tw.Append(TraceEvent{Kind: k, P: Int(1)}) // intern every kind
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range kinds {
			i++
			tw.Append(TraceEvent{At: Time(i), Kind: k, Node: i, P: Int(int64(i))})
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %.1f times per 4-event burst, want 0", allocs)
	}
	if tw.Err() != nil {
		t.Fatal(tw.Err())
	}
}
