package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// writerFuzzKinds is the kind vocabulary of FuzzTraceWriterMatchesReference:
// the engine's own kinds, the empty string and generated names, 300 in all,
// so interned ids cross the one-byte varint at 128, with every 50th kind
// longer than the writer's 64 KiB buffer.
func writerFuzzKinds() []string {
	kinds := []string{"bcast", "rcv", "ack", "abort", "arrive", "deliver", ""}
	for i := len(kinds); i < 300; i++ {
		if i%50 == 49 {
			kinds = append(kinds, strings.Repeat(string(rune('a'+i%26)), traceBufSize+i))
		} else {
			kinds = append(kinds, fmt.Sprintf("k%d", i))
		}
	}
	return kinds
}

// decodeWriterFuzz turns fuzz bytes into a write budget and an event
// sequence. The first three bytes are the budget, little-endian, and the
// fourth how many times the sequence repeats (1 to 64, so short inputs
// fill the writer's buffer too). Each event is then a little-endian uint16
// picking its kind (mod the vocabulary), a payload tag byte and five signed
// varints: time, node and the operands A, B and C. Decoding stops at the
// first event the bytes do not complete.
func decodeWriterFuzz(data []byte, kinds []string) (budget int, evs []TraceEvent) {
	if len(data) < 4 {
		return 0, nil
	}
	budget = int(data[0]) | int(data[1])<<8 | int(data[2])<<16
	reps := 1 + int(data[3])%64
	data = data[4:]
	defer func() {
		n := len(evs)
		for i := 1; i < reps; i++ {
			evs = append(evs, evs[:n]...)
		}
	}()
	for len(data) >= 3 {
		ev := TraceEvent{
			Kind: kinds[int(binary.LittleEndian.Uint16(data))%len(kinds)],
			P:    Payload{Kind: PayloadKind(data[2])},
		}
		data = data[3:]
		var vals [5]int64
		for i := range vals {
			v, n := binary.Varint(data)
			if n <= 0 {
				return budget, evs
			}
			vals[i], data = v, data[n:]
		}
		ev.At, ev.Node, ev.P.A, ev.P.B, ev.P.C = Time(vals[0]), int(vals[1]), vals[2], vals[3], vals[4]
		evs = append(evs, ev)
	}
	return budget, evs
}

// budgetWriter accepts budget bytes and fails every write past them,
// keeping what it accepted.
type budgetWriter struct {
	got    bytes.Buffer
	budget int
}

var errBudget = errors.New("write budget exhausted")

func (w *budgetWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.budget)
	w.got.Write(p[:n])
	w.budget -= n
	if n < len(p) {
		return n, errBudget
	}
	return n, nil
}

// FuzzTraceWriterMatchesReference holds TraceWriter to the map-and-bufio
// writer it replaced (reference_test.go): on every decoded event sequence
// the two streams have the same bytes and the writers the same Len. Then
// the sequence goes to a writer that fails once the fuzzed budget, taken
// modulo the stream's length plus one, is spent: everything up to the
// budget must arrive as the reference wrote it, and unless the budget
// covers the whole stream Flush and Err must report the failure, after
// which Append accepts nothing.
func FuzzTraceWriterMatchesReference(f *testing.F) {
	kinds := writerFuzzKinds()
	f.Fuzz(func(t *testing.T, data []byte) {
		budget, evs := decodeWriterFuzz(data, kinds)
		var got, want bytes.Buffer
		tw, ref := NewTraceWriter(&got), newRefTraceWriter(&want)
		for _, ev := range evs {
			tw.Append(ev)
			ref.Append(ev)
		}
		if err := tw.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if err := ref.Flush(); err != nil {
			t.Fatalf("reference flush: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d events: stream of %d bytes differs from the reference's %d", len(evs), got.Len(), want.Len())
		}
		if tw.Len() != ref.Len() {
			t.Fatalf("Len %d, reference %d", tw.Len(), ref.Len())
		}

		w := &budgetWriter{budget: budget % (want.Len() + 1)}
		tw = NewTraceWriter(w)
		for _, ev := range evs {
			tw.Append(ev)
		}
		err := tw.Flush()
		if !bytes.Equal(w.got.Bytes(), want.Bytes()[:w.got.Len()]) {
			t.Fatalf("the failing writer received %d bytes that are not a prefix of the stream", w.got.Len())
		}
		if w.got.Len() < want.Len() {
			if err == nil || tw.Err() != err {
				t.Fatalf("%d of %d bytes written: Flush = %v, Err = %v, want the write error from both", w.got.Len(), want.Len(), err, tw.Err())
			}
			n := tw.Len()
			tw.Append(TraceEvent{Kind: "bcast"})
			if tw.Len() != n {
				t.Fatal("Append accepted an event after the write failed")
			}
		} else if err != nil {
			t.Fatalf("the whole stream fit the budget, yet Flush = %v", err)
		}
	})
}
