package check

import (
	"testing"

	"amac/internal/sim"
)

func ev(at sim.Time, kind string, node int, msg int64) sim.TraceEvent {
	return sim.TraceEvent{At: at, Kind: kind, Node: node, P: sim.Int(msg)}
}

func TestMMBCleanTrace(t *testing.T) {
	events := []sim.TraceEvent{
		ev(0, "arrive", 0, 1),
		ev(0, "deliver", 0, 1),
		ev(5, "deliver", 1, 1),
		ev(9, "deliver", 2, 1),
	}
	r := &Report{}
	MMB(r, events, MMBParams{})
	if !r.OK() {
		t.Fatalf("clean trace flagged: %v", r.Violations)
	}
}

func TestMMBDuplicateArrive(t *testing.T) {
	events := []sim.TraceEvent{
		ev(0, "arrive", 0, 1),
		ev(1, "arrive", 1, 1),
	}
	r := &Report{}
	MMB(r, events, MMBParams{})
	if r.OK() {
		t.Fatal("duplicate arrive not flagged")
	}
}

func TestMMBDuplicateDeliver(t *testing.T) {
	events := []sim.TraceEvent{
		ev(0, "arrive", 0, 1),
		ev(1, "deliver", 1, 1),
		ev(2, "deliver", 1, 1),
	}
	r := &Report{}
	MMB(r, events, MMBParams{})
	if r.OK() {
		t.Fatal("duplicate deliver not flagged")
	}
}

func TestMMBDeliverWithoutArrive(t *testing.T) {
	events := []sim.TraceEvent{
		ev(1, "deliver", 1, 9),
	}
	r := &Report{}
	MMB(r, events, MMBParams{})
	if r.OK() {
		t.Fatal("unsolicited deliver not flagged")
	}
}

func TestMMBDeliverBeforeArrive(t *testing.T) {
	events := []sim.TraceEvent{
		ev(5, "arrive", 0, 1),
		ev(3, "deliver", 1, 1), // out of order in the trace
	}
	// Traces are time-ordered in practice; feed in time order so the
	// causality check sees the early deliver.
	events = []sim.TraceEvent{events[1], events[0]}
	r := &Report{}
	MMB(r, events, MMBParams{})
	if r.OK() {
		t.Fatal("pre-arrive deliver not flagged")
	}
}

func TestMMBCustomKinds(t *testing.T) {
	// Under the custom deliver kind, node 1's "deliver" event is not a
	// second deliver.
	events := []sim.TraceEvent{
		ev(0, "arrive", 0, 7),
		ev(1, "output", 1, 7),
		ev(2, "deliver", 1, 7),
	}
	r := &Report{}
	MMB(r, events, MMBParams{DeliverKind: "output"})
	if !r.OK() {
		t.Fatalf("custom kinds flagged: %v", r.Violations)
	}
}
