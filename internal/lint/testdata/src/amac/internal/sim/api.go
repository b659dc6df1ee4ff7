// Package sim is a miniature stand-in for the real simulator core: just
// enough API surface (Payload and its boxers) for the analyzer fixtures to
// exercise amacvet's package-path matching at the exact import paths the
// real analyzers key on.
package sim

// Time is the virtual clock.
type Time int64

// Payload mirrors the real typed-operand struct: a kind tag and three
// integer operands. Boxing happens only in Value.
type Payload struct {
	Kind    int32
	A, B, C int64
}

// Value re-boxes the payload into the dynamic value it encodes — the one
// legal boxing point, reached post-run.
func (p Payload) Value() any { return boxers[p.Kind](p) }

// TraceEvent is one rendered trace record.
type TraceEvent struct {
	At Time
	P  Payload
}

// Value re-boxes the trace event's payload.
func (t TraceEvent) Value() any { return t.P.Value() }

var boxers []func(Payload) any

// RegisterPayloadKind registers the boxer for one payload kind and returns
// the kind tag.
func RegisterPayloadKind(boxer func(Payload) any) int32 {
	boxers = append(boxers, boxer)
	return int32(len(boxers) - 1)
}
