package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// traceFixture returns events covering the encoder's cases: interned kind
// reuse, negative times and operands, and every built-in payload kind.
func traceFixture() []TraceEvent {
	return []TraceEvent{
		{At: 0, Kind: "bcast", Node: 0, P: Int(7)},
		{At: 3, Kind: "rcv", Node: 1, P: Payload{Kind: PayloadInt, A: -42}},
		{At: 3, Kind: "rcv", Node: 2, P: Int(7)},
		{At: -5, Kind: "ack", Node: -1, P: Payload{}},
		{At: 1 << 40, Kind: "bcast", Node: 999999, P: Payload{Kind: PayloadNone, A: 1, B: -2, C: 3}},
		{At: 11, Kind: "rcv", Node: 6, P: Int(0)},
	}
}

// encodeFixture streams the fixture through a TraceWriter.
func encodeFixture(t testing.TB) []byte {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, ev := range traceFixture() {
		tw.Append(ev)
	}
	if tw.Len() != len(traceFixture()) {
		t.Fatalf("writer Len = %d, want %d", tw.Len(), len(traceFixture()))
	}
	if err := tw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestTraceFileRoundTrip writes the fixture and reads it back, comparing
// field-for-field.
func TestTraceFileRoundTrip(t *testing.T) {
	tr, err := NewTraceReader(bytes.NewReader(encodeFixture(t)))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i, want := range traceFixture() {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("after last event: err = %v, want io.EOF", err)
	}
}

// TestTraceWriterGolden pins the AMTR encoding byte for byte: magic and
// version, varint layout, kind interning, payload tag numbers and the
// trailing flag byte. Recorded streams (and their checksums) stay readable
// only while this holds, so a change here is a format change.
func TestTraceWriterGolden(t *testing.T) {
	// Per event: zigzag time, kind id (plus length and bytes when new),
	// zigzag node, payload tag, zigzag A B C, flag.
	const want = "414d545201" + // magic, version 1
		"00" + "00056263617374" + "00" + "020e0000" + "00" + // t0 "bcast" n0 Int(7)
		"06" + "0103726376" + "02" + "02530000" + "00" + // t3 "rcv" n1 Int(-42)
		"06" + "01" + "04" + "020e0000" + "00" + // t3 "rcv" n2 Int(7)
		"09" + "020361636b" + "01" + "00000000" + "00" + // t-5 "ack" n-1 None
		"808080808040" + "00" + "fe887a" + "00020306" + "00" + // t2^40 "bcast" n999999 None{1,-2,3}
		"16" + "01" + "0c" + "02000000" + "00" // t11 "rcv" n6 Int(0)
	if got := hex.EncodeToString(encodeFixture(t)); got != want {
		t.Fatalf("encoded fixture:\n got %s\nwant %s", got, want)
	}
}

// TestPayloadIsPlainData keeps Payload a tag plus integer operands: no
// interface, pointer or string field may creep back in, since copying a
// payload through events and traces must never box or retain a reference.
func TestPayloadIsPlainData(t *testing.T) {
	typ := reflect.TypeOf(Payload{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Payload.%s is a %s, want an integer", f.Name, f.Type)
		}
	}
}

// TestTraceReaderRejectsUnrenderablePayloads: every event Next returns must
// render. A payload tag with no registered boxer (the 15-byte stream below
// once decoded fine and then panicked in String), the retired boxed-value
// tag 1 and a set boxed-value flag are decode errors instead.
func TestTraceReaderRejectsUnrenderablePayloads(t *testing.T) {
	event := func(tag, flag byte) []byte {
		b := append([]byte{}, traceMagic[:]...)
		b = append(b, 0, 0, 1, 'x', 0) // time 0, new kind 0 "x", node 0
		return append(b, tag, 0, 0, 0, flag)
	}
	cases := []struct {
		name   string
		stream []byte
		want   string
	}{
		{"unregistered tag", event(200, 0), "payload kind 200 is not registered"},
		{"retired tag", event(byte(payloadRetired), 0), "payload kind 1 is not registered"},
		{"boxed-value flag", append(event(byte(PayloadInt), 1), 1, 'v'), "ext flag 1"},
	}
	for _, tc := range cases {
		tr, err := NewTraceReader(bytes.NewReader(tc.stream))
		if err != nil {
			t.Fatal(err)
		}
		for {
			ev, err := tr.Next()
			if err == nil {
				_ = ev.String()
				continue
			}
			if err == io.EOF || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: err = %v, want an error containing %q", tc.name, err, tc.want)
			}
			break
		}
	}
}

// TestTraceReadAllMatchesTrace checks the drain helper against an in-memory
// trace fed the same events.
func TestTraceReadAllMatchesTrace(t *testing.T) {
	var mem Trace
	for _, ev := range traceFixture() {
		mem.Append(ev)
	}
	tr, err := NewTraceReader(bytes.NewReader(encodeFixture(t)))
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
// corrupt the stream, Next must return events or an error and never panic,
// and every event it returns must render without panicking. ReadAll then
// drains the same bytes: it fails where Next failed or where an event does
// not fit an in-memory Trace (a node past int32, more than 65,536 kinds),
// and otherwise holds exactly Next's events.
func FuzzTraceReader(f *testing.F) {
	stream := encodeFixture(f)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	huge := append([]byte{}, traceMagic[:]...)
	huge = append(huge, 0, 0)
	f.Add(binary.AppendUvarint(huge, 1<<62))
	f.Add(kindStream(2, 1<<40))
	f.Fuzz(func(t *testing.T, stream []byte) {
		tr, err := NewTraceReader(bytes.NewReader(stream))
		if err != nil {
			return
		}
		var evs []TraceEvent
		fits := true
		// Every event consumes at least one byte, so a well-behaved
		// decoder ends within len(stream) calls.
		for i := 0; ; i++ {
			if i > len(stream) {
				t.Fatalf("decoder returned more events than the %d-byte stream holds", len(stream))
			}
			var ev TraceEvent
			if ev, err = tr.Next(); err != nil {
				break
			}
			_ = ev.String()
			evs = append(evs, ev)
			fits = fits && ev.Node == int(int32(ev.Node))
		}
		fits = fits && len(tr.kinds) <= maxTraceKinds

		again, _ := NewTraceReader(bytes.NewReader(stream)) // the same header parsed above
		all, allErr := again.ReadAll()
		switch {
		case err != io.EOF || !fits:
			if allErr == nil {
				t.Fatalf("ReadAll accepted a stream Next ends with %v (events fit a Trace: %v)", err, fits)
			}
		case allErr != nil:
			t.Fatalf("ReadAll: %v, yet Next read the stream to its end", allErr)
		case !slices.Equal(all.Events(), evs):
			t.Fatalf("ReadAll holds %d events that differ from Next's %d", all.Len(), len(evs))
		}
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
