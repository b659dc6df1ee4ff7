package sim

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestTraceRecordLayout keeps a trace record at 40 bytes of plain data: a
// pointer in it would make the collector scan every block, and each byte
// more costs a byte per recorded event.
func TestTraceRecordLayout(t *testing.T) {
	typ := reflect.TypeOf(record{})
	if typ.Size() != 40 {
		t.Errorf("record is %d bytes, want 40", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() < reflect.Int || f.Type.Kind() > reflect.Uint64 {
			t.Errorf("record.%s is a %s, want an integer", f.Name, f.Type)
		}
	}
}

// TestTraceKindTableOverflowPanics: a trace holds 65,536 kinds, the most
// record.kind can index; the 65,537th must panic, not wrap onto kind 0 and
// mislabel events. The first 65,535 kinds go into the table directly:
// appending them would scan the table once per kind.
func TestTraceKindTableOverflowPanics(t *testing.T) {
	var tr Trace
	for i := 0; i < maxTraceKinds-1; i++ {
		tr.kinds = append(tr.kinds, fmt.Sprintf("k%d", i))
	}
	tr.Append(TraceEvent{At: 1, Kind: "k65535", Node: 7})
	if got := tr.Events()[0]; got.Kind != "k65535" || got.Node != 7 {
		t.Fatalf("the 65,536th kind reads back as %+v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 65,537th kind was accepted")
		}
	}()
	tr.Append(TraceEvent{Kind: "k65536"})
}

// TestTraceResetKeepsBlocks: Reset keeps the blocks, so refilling a reset
// trace with as many events allocates nothing.
func TestTraceResetKeepsBlocks(t *testing.T) {
	var tr Trace
	fill := func() {
		tr.Reset()
		for i := 0; i < 3*traceBlockLen+1; i++ {
			tr.Append(TraceEvent{At: Time(i), Kind: "rcv", Node: i, P: Int(int64(i))})
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("refilling a reset trace allocates %.1f times, want 0", allocs)
	}
	if got := tr.Len(); got != 3*traceBlockLen+1 {
		t.Fatalf("Len = %d after the refill", got)
	}
}

// traceFuzzKinds is the kind vocabulary of FuzzTraceMatchesReference: the
// engine's own kinds, the empty string and generated names, 300 in all, so
// a trace's kind table can outgrow one byte of index.
func traceFuzzKinds() []string {
	kinds := []string{"bcast", "rcv", "ack", "abort", "arrive", "deliver", ""}
	for i := len(kinds); i < 300; i++ {
		kinds = append(kinds, fmt.Sprintf("k%d", i))
	}
	return kinds
}

// traceOp is one decoded operation of FuzzTraceMatchesReference: a Reset
// of trace tr, or count appends to it, the j-th of which is ev with its
// kind advanced j places in the vocabulary and its node by j.
type traceOp struct {
	tr    int
	reset bool
	count int
	ev    TraceEvent
	kind  int // ev.Kind's place in the vocabulary
}

const (
	// traceFuzzMaxOps and traceFuzzMaxEvents bound one input, since every
	// op renders its trace twice.
	traceFuzzMaxOps    = 256
	traceFuzzMaxEvents = 4 * traceBlockLen
)

// decodeTraceFuzz turns fuzz bytes into a trace count (1 to 4) and ops.
// Byte 0 picks the count. Each op then opens with a byte o: o%4, modulo
// the count, names the trace; o>>2 = 63 resets it, o>>2 ≥ 48 appends
// 1 + 4·(next byte) events and anything else one event. An append reads a
// little-endian uint16 (kind, modulo the vocabulary), a byte (payload tag:
// PayloadNone if even, PayloadInt if odd), a uvarint time step (capped at
// 2^40; each trace's times only grow, from −1,000) and four varints: the
// node (narrowed to int32, as a Trace keeps it) and the operands A, B and
// C. Decoding stops at the first op the bytes do not complete, or at the
// op or event bound.
func decodeTraceFuzz(data []byte, kinds []string) (traces int, ops []traceOp) {
	if len(data) == 0 {
		return 1, nil
	}
	traces = 1 + int(data[0])%4
	data = data[1:]
	var at [4]Time
	for i := range at {
		at[i] = -1000
	}
	events := 0
	for len(data) > 0 && len(ops) < traceFuzzMaxOps {
		o := data[0]
		data = data[1:]
		op := traceOp{tr: int(o%4) % traces, count: 1}
		switch {
		case o>>2 == 63:
			op.reset = true
			ops = append(ops, op)
			continue
		case o>>2 >= 48:
			if len(data) == 0 {
				return traces, ops
			}
			op.count = 1 + 4*int(data[0])
			data = data[1:]
		}
		if len(data) < 3 {
			return traces, ops
		}
		op.kind = int(binary.LittleEndian.Uint16(data)) % len(kinds)
		if data[2]%2 == 1 {
			op.ev.P.Kind = PayloadInt
		}
		data = data[3:]
		step, n := binary.Uvarint(data)
		if n <= 0 {
			return traces, ops
		}
		data = data[n:]
		var vals [4]int64
		for i := range vals {
			v, n := binary.Varint(data)
			if n <= 0 {
				return traces, ops
			}
			vals[i], data = v, data[n:]
		}
		at[op.tr] += Time(min(step, 1<<40))
		op.ev.At, op.ev.Node = at[op.tr], int(int32(vals[0]))
		op.ev.P.A, op.ev.P.B, op.ev.P.C = vals[1], vals[2], vals[3]
		op.count = min(op.count, traceFuzzMaxEvents-events)
		if op.count == 0 {
			return traces, ops
		}
		events += op.count
		ops = append(ops, op)
	}
	return traces, ops
}

// FuzzTraceMatchesReference holds Trace to the slice of TraceEvents it
// replaced (refTrace, reference_test.go). Decoded ops run on up to four
// traces and their references side by side; after every op the trace it
// touched has the reference's Len, Events, String and Filter, the last for
// the op's kind and for "rcv". Then MergeTraces, into a Trace and into a
// reference, must equal a stable sort of the references' events by (time,
// trace index), and leave the merged traces as they were.
func FuzzTraceMatchesReference(f *testing.F) {
	kinds := traceFuzzKinds()
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ops := decodeTraceFuzz(data, kinds)
		got := make([]*Trace, n)
		want := make([]*refTrace, n)
		for i := range got {
			got[i], want[i] = new(Trace), new(refTrace)
		}
		for i, op := range ops {
			tr, ref := got[op.tr], want[op.tr]
			if op.reset {
				tr.Reset()
				ref.Reset()
			}
			for j := 0; j < op.count && !op.reset; j++ {
				ev := op.ev
				ev.Kind = kinds[(op.kind+j)%len(kinds)]
				ev.Node = int(int32(ev.Node + j))
				tr.Append(ev)
				ref.Append(ev)
			}
			if tr.Len() != ref.Len() {
				t.Fatalf("op %d: Len %d, reference %d", i, tr.Len(), ref.Len())
			}
			if !slices.Equal(tr.Events(), ref.Events()) {
				t.Fatalf("op %d: Events differ from the reference's", i)
			}
			if tr.String() != ref.String() {
				t.Fatalf("op %d: String differs from the reference's", i)
			}
			for _, kind := range []string{kinds[op.kind], "rcv"} {
				if !slices.Equal(tr.Filter(kind), ref.Filter(kind)) {
					t.Fatalf("op %d: Filter(%q) differs from the reference's", i, kind)
				}
			}
		}

		type indexed struct {
			ev TraceEvent
			tr int
		}
		var all []indexed
		for i, ref := range want {
			for _, ev := range ref.Events() {
				all = append(all, indexed{ev, i})
			}
		}
		slices.SortStableFunc(all, func(a, b indexed) int {
			return cmp.Or(cmp.Compare(a.ev.At, b.ev.At), cmp.Compare(a.tr, b.tr))
		})
		merged := make([]TraceEvent, len(all))
		for i, x := range all {
			merged[i] = x.ev
		}
		var into Trace
		var intoRef refTrace
		MergeTraces(got, &into)
		MergeTraces(got, &intoRef)
		if !slices.Equal(into.Events(), merged) {
			t.Fatalf("MergeTraces of %d traces into a Trace differs from the sorted references", n)
		}
		if !slices.Equal(intoRef.Events(), merged) {
			t.Fatalf("MergeTraces of %d traces into a sink differs from the sorted references", n)
		}
		for i := range got {
			if !slices.Equal(got[i].Events(), want[i].Events()) {
				t.Fatalf("MergeTraces changed trace %d", i)
			}
		}
	})
}

// kindStream returns an AMTR stream of kinds events, each announcing a
// kind of its own, and a last event whose node is node.
func kindStream(kinds, node int) []byte {
	s := append([]byte{}, traceMagic[:]...)
	for i := 0; i < kinds; i++ {
		s = binary.AppendUvarint(s, 0) // time 0
		s = binary.AppendUvarint(s, uint64(i))
		name := fmt.Sprintf("k%d", i)
		s = binary.AppendUvarint(s, uint64(len(name)))
		s = append(s, name...)
		v := 0
		if i == kinds-1 {
			v = node
		}
		s = binary.AppendUvarint(s, zigzag(int64(v)))
		s = append(s, byte(PayloadNone), 0, 0, 0, 0) // tag, A, B, C, flag
	}
	return s
}

// TestTraceReadAllRejectsWhatATraceCannotHold: ReadAll takes outside bytes,
// so a stream with more kinds than a Trace indexes, or with a node id past
// int32, must be an error rather than a panic or a narrowed node, while
// Next still decodes both streams. A stream of exactly 65,536 kinds reads
// back whole.
func TestTraceReadAllRejectsWhatATraceCannotHold(t *testing.T) {
	readAll := func(stream []byte) (*Trace, error) {
		tr, err := NewTraceReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		return tr.ReadAll()
	}
	drain := func(stream []byte) int {
		tr, err := NewTraceReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			if _, err := tr.Next(); err == io.EOF {
				return n
			} else if err != nil {
				t.Fatal(err)
			}
			n++
		}
	}

	full, err := readAll(kindStream(maxTraceKinds, 3))
	if err != nil {
		t.Fatalf("%d kinds: %v", maxTraceKinds, err)
	}
	if last := full.Events()[maxTraceKinds-1]; full.Len() != maxTraceKinds || last.Kind != "k65535" || last.Node != 3 {
		t.Fatalf("%d kinds read back as %d events ending %+v", maxTraceKinds, full.Len(), last)
	}

	over := kindStream(maxTraceKinds+1, 0)
	if _, err := readAll(over); err == nil || !strings.Contains(err.Error(), "at most 65536 kinds") {
		t.Fatalf("%d kinds: err = %v, want the kind limit", maxTraceKinds+1, err)
	}
	if n := drain(over); n != maxTraceKinds+1 {
		t.Fatalf("Next decoded %d events of the %d-kind stream", n, maxTraceKinds+1)
	}

	wide := kindStream(2, 1<<40)
	if _, err := readAll(wide); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("node 2^40: err = %v, want the node bound", err)
	}
	if n := drain(wide); n != 2 {
		t.Fatalf("Next decoded %d events of the wide-node stream", n)
	}
}
