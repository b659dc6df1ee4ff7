// Package payloadboxfix exercises the payloadbox analyzer: on the per-event
// packages a Payload travels as typed operands, and boxing is legal only
// inside registered boxers (and in package sim itself).
package payloadboxfix

import "amac/internal/sim"

// kindPair's boxer literal may re-box: that is its job, so the conversion
// inside it draws no diagnostic.
var kindPair = sim.RegisterPayloadKind(func(p sim.Payload) any {
	return any(p)
})

// kindSum is registered by name; boxSum's whole body is exempt too.
var kindSum = sim.RegisterPayloadKind(boxSum)

func boxSum(p sim.Payload) any {
	return any(p)
}

// renderEarly is flagged: re-boxing on the event path.
func renderEarly(p sim.Payload) any {
	v := p.Value() // want "Payload.Value re-boxes the payload on the event path"
	return v
}

// traceValue is flagged: the trace record's payload stays unboxed until
// render.
func traceValue(ev sim.TraceEvent) any {
	v := ev.Value() // want "TraceEvent.Value re-boxes the payload on the event path"
	return v
}

// toAny is flagged: assigning a Payload into an interface boxes the struct.
func toAny(p sim.Payload) {
	var v any
	v = p // want "sim.Payload converted to interface boxes"
	_ = v
}

// logged is flagged: a Payload flowing into an interface parameter boxes at
// the call site.
func logged(p sim.Payload, emit func(v any)) {
	emit(p) // want "sim.Payload converted to interface boxes"
}

// operands passes: reading the typed operands is the discipline.
func operands(p sim.Payload) int64 { return p.A + p.B + p.C }

// share passes: a *Payload in an interface shares, it does not box the
// struct.
func share(p *sim.Payload) any {
	var v any
	v = p
	return v
}

// debugValue passes via the escape hatch, reason attached.
func debugValue(p sim.Payload) any {
	return p.Value() //lint:payloadbox fixture: test-only dump, off the event path
}
