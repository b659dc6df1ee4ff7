package core

import (
	"fmt"
	"reflect"
	"testing"

	"amac/internal/sim"
)

// TestTraceRecordLayout keeps the sharded executor's trace record at 40
// bytes of plain data: a pointer in it would make the collector scan every
// record block, and each byte more costs a byte per recorded event.
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

// TestRecorderKindTableOverflowPanics: a component recorder holds 256
// kinds, the most record.kind can index; the 257th must panic, not wrap
// onto kind 0 and mislabel events.
func TestRecorderKindTableOverflowPanics(t *testing.T) {
	rc := recorder{pool: &blockPool{}}
	for i := 0; i < 256; i++ {
		rc.Append(sim.TraceEvent{At: sim.Time(i), Kind: fmt.Sprintf("k%d", i)})
	}
	if got := rc.event(255).Kind; got != "k255" {
		t.Fatalf("event 255 reads back kind %q, want k255", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 257th kind was accepted")
		}
	}()
	rc.Append(sim.TraceEvent{Kind: "k256"})
}
