package check

import (
	"amac/internal/sim"
)

// MMBParams names the trace kind of the MMB deliver output; "" selects
// "deliver", the core package's. Arrivals are the engine's "arrive" events.
type MMBParams struct {
	DeliverKind string
}

// MMB verifies the MMB problem conditions of Section 3.2.2 on a trace:
//
//   - MMB-well-formedness: at most one arrive event per message;
//   - condition (b): at most one deliver(m) per process, and every deliver
//     is preceded by an arrive of the same message.
//
// Condition (a) — every message eventually delivered everywhere — is a
// liveness property tied to the workload's components; the runner checks
// it via completion accounting (Result.Solved), so it is not re-derived
// here.
//
// The runner no longer calls MMB: its watcher checks these conditions
// online in every trace mode, and MMB is the reference it is tested against.
func MMB(r *Report, events []sim.TraceEvent, p MMBParams) {
	if p.DeliverKind == "" {
		p.DeliverKind = "deliver"
	}
	// Messages key by their typed payload: payloads of the same kind with
	// equal operands stand for the same message. Violation text renders the
	// boxed value (the rare path), matching the old any-keyed output.
	arrived := make(map[sim.Payload]sim.Time)
	delivered := make(map[deliverKey]sim.Time)
	for _, ev := range events {
		switch ev.Kind {
		case "arrive":
			if prev, dup := arrived[ev.P]; dup {
				r.add("MMB well-formedness",
					"message %v arrived twice (first %v, again %v at node %d)",
					ev.Value(), prev, ev.At, ev.Node)
				continue
			}
			arrived[ev.P] = ev.At
		case p.DeliverKind:
			key := deliverKey{node: ev.Node, msg: ev.P}
			if prev, dup := delivered[key]; dup {
				r.add("MMB delivery uniqueness",
					"node %d delivered %v twice (first %v, again %v)",
					ev.Node, ev.Value(), prev, ev.At)
				continue
			}
			delivered[key] = ev.At
			at, ok := arrived[ev.P]
			if !ok {
				r.add("MMB delivery causality",
					"node %d delivered %v before any arrive", ev.Node, ev.Value())
			} else if ev.At < at {
				r.add("MMB delivery causality",
					"node %d delivered %v at %v, before its arrive at %v",
					ev.Node, ev.Value(), ev.At, at)
			}
		}
	}
}

type deliverKey struct {
	node int
	msg  sim.Payload
}
