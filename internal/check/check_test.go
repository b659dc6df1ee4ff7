package check

import (
	"testing"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// inst builds a bare instance record over n nodes. The reliable-degree
// counter is irrelevant here: the checkers re-derive every property from
// the dual graph, never from the instance's own ack-readiness counter. The
// row is every node 0..n−1, not the sender's G′ neighbors, so any node can
// be marked — these tests deliberately build histories the engine would
// reject.
func inst(id int, sender mac.NodeID, start sim.Time, n int) *mac.Instance {
	row := make([]mac.NodeID, n)
	for i := range row {
		row[i] = mac.NodeID(i)
	}
	return mac.NewInstance(mac.InstanceID(id), sender, mac.Payload{}, start, row, 0)
}

func params() Params {
	return Params{Fack: 100, Fprog: 10, End: 1000}
}

func TestCleanExecutionPasses(t *testing.T) {
	d := topology.Line(3)
	b := inst(0, 1, 0, 3)
	b.MarkDelivered(0, 5, false)
	b.MarkDelivered(2, 7, false)
	b.Term = mac.Acked
	b.TermAt = 9
	r := All(d, []*mac.Instance{b}, params())
	if !r.OK() {
		t.Fatalf("clean execution flagged: %v", r.Violations)
	}
}

func TestReceiveCorrectnessNonEdge(t *testing.T) {
	d := topology.Line(3) // no edge 0-2
	b := inst(0, 0, 0, 3)
	b.MarkDelivered(2, 5, false) // illegal: 2 is not a G' neighbor of 0
	b.MarkDelivered(1, 5, false)
	b.Term = mac.Acked
	b.TermAt = 6
	r := &Report{}
	ReceiveCorrectness(r, d, []*mac.Instance{b}, params())
	if r.OK() {
		t.Fatal("non-edge delivery not flagged")
	}
}

func TestReceiveCorrectnessAfterAck(t *testing.T) {
	d := topology.Line(3)
	b := inst(0, 1, 0, 3)
	b.MarkDelivered(0, 5, false)
	b.MarkDelivered(2, 20, false) // after the ack below
	b.Term = mac.Acked
	b.TermAt = 10
	r := &Report{}
	ReceiveCorrectness(r, d, []*mac.Instance{b}, params())
	if r.OK() {
		t.Fatal("post-ack delivery not flagged")
	}
}

func TestReceiveCorrectnessAbortEpsilon(t *testing.T) {
	d := topology.Line(2)
	p := params()
	p.EpsAbort = 5

	b := inst(0, 0, 0, 2)
	b.Term = mac.Aborted
	b.TermAt = 10
	b.MarkDelivered(1, 12, false)
	r := &Report{}
	ReceiveCorrectness(r, d, []*mac.Instance{b}, p)
	if !r.OK() {
		t.Fatalf("delivery within eps flagged: %v", r.Violations)
	}

	b = inst(0, 0, 0, 2)
	b.Term = mac.Aborted
	b.TermAt = 10
	b.MarkDelivered(1, 16, false) // beyond eps
	r = &Report{}
	ReceiveCorrectness(r, d, []*mac.Instance{b}, p)
	if r.OK() {
		t.Fatal("delivery beyond eps not flagged")
	}
}

func TestAckCorrectnessMissingNeighbor(t *testing.T) {
	d := topology.Line(3)
	b := inst(0, 1, 0, 3)
	b.MarkDelivered(0, 5, false) // neighbor 2 never receives
	b.Term = mac.Acked
	b.TermAt = 9
	r := &Report{}
	AckCorrectness(r, d, []*mac.Instance{b}, params())
	if r.OK() {
		t.Fatal("ack with missing neighbor not flagged")
	}
}

func TestTermination(t *testing.T) {
	b := inst(0, 0, 0, 2) // never terminated, Fack window long past
	r := &Report{}
	Termination(r, []*mac.Instance{b}, params())
	if r.OK() {
		t.Fatal("unterminated instance not flagged")
	}
	// An instance whose Fack window extends past End is exempt.
	b2 := inst(1, 0, 950, 2)
	r = &Report{}
	Termination(r, []*mac.Instance{b2}, params())
	if !r.OK() {
		t.Fatalf("fresh instance flagged: %v", r.Violations)
	}
}

func TestAckBound(t *testing.T) {
	b := inst(0, 0, 0, 2)
	b.Term = mac.Acked
	b.TermAt = 150 // > Fack = 100
	r := &Report{}
	AckBound(r, []*mac.Instance{b}, params())
	if r.OK() {
		t.Fatal("late ack not flagged")
	}
}

func TestProgressBoundViolation(t *testing.T) {
	// Node 1 broadcasts for [0, 100]; neighbor 0 receives nothing at all.
	// Aborted rather than acked so ack correctness doesn't also apply.
	d := topology.Line(3)
	b := inst(0, 1, 0, 3)
	b.MarkDelivered(2, 5, false) // other neighbor got it; 0 starved
	b.Term = mac.Aborted
	b.TermAt = 100
	r := &Report{}
	ProgressBound(r, d, []*mac.Instance{b}, params())
	if r.OK() {
		t.Fatal("starved receiver not flagged")
	}
}

func TestProgressBoundEarlyReceiveCovers(t *testing.T) {
	// The paper's semantics (Lemma 3.10): one receive whose instance stays
	// alive covers all later windows inside the span.
	d := topology.Line(2)
	b := inst(0, 0, 0, 2)
	b.MarkDelivered(1, 8, false) // within Fprog of start; instance alive to 100
	b.Term = mac.Acked
	b.TermAt = 100
	r := &Report{}
	ProgressBound(r, d, []*mac.Instance{b}, params())
	if !r.OK() {
		t.Fatalf("covered span flagged: %v", r.Violations)
	}
}

func TestProgressBoundLateFirstReceive(t *testing.T) {
	// First receive after more than Fprog from the span start: the initial
	// window is uncovered.
	d := topology.Line(2)
	b := inst(0, 0, 0, 2)
	b.MarkDelivered(1, 25, false) // Fprog = 10: window [0, 25] uncovered
	b.Term = mac.Acked
	b.TermAt = 100
	r := &Report{}
	ProgressBound(r, d, []*mac.Instance{b}, params())
	if r.OK() {
		t.Fatal("late first receive not flagged")
	}
}

func TestProgressBoundDeadInstanceDoesNotCover(t *testing.T) {
	// A receive from an instance that terminated before the window starts
	// does not cover the window (contend excludes it).
	d := topology.Line(3)
	// Instance X from node 1: delivered to 0 early, terminated at t=10.
	x := inst(0, 1, 0, 3)
	x.MarkDelivered(0, 5, false)
	x.MarkDelivered(2, 5, false)
	x.Term = mac.Acked
	x.TermAt = 10
	// Instance Y from node 1: spans [20, 120], never delivered to 0
	// (aborted so ack correctness doesn't apply), 2 covered.
	y := inst(1, 1, 20, 3)
	y.MarkDelivered(2, 25, false)
	y.Term = mac.Aborted
	y.TermAt = 120
	r := &Report{}
	ProgressBound(r, d, []*mac.Instance{x, y}, params())
	if r.OK() {
		t.Fatal("node 0 starved during Y's span; X's old receive must not cover it")
	}
}

func TestProgressBoundCrossInstanceCoverage(t *testing.T) {
	// Node 0 never receives X but receives Y mid-span; Y's receive covers
	// X's windows while Y is alive.
	d := topology.Line(3)
	x := inst(0, 1, 0, 3) // spans [0, 100], never delivered to 0
	x.MarkDelivered(2, 5, false)
	x.Term = mac.Aborted
	x.TermAt = 100
	y := inst(1, 1, 0, 3) // delivered to 0 at 9, alive to 100
	y.MarkDelivered(0, 9, false)
	y.MarkDelivered(2, 9, false)
	y.Term = mac.Acked
	y.TermAt = 100
	r := &Report{}
	ProgressBound(r, d, []*mac.Instance{x, y}, params())
	if !r.OK() {
		t.Fatalf("cross-instance coverage not honored: %v", r.Violations)
	}
}

func TestReportErr(t *testing.T) {
	r := &Report{}
	if r.Err() != nil {
		t.Fatal("empty report has error")
	}
	r.add("x", "boom %d", 7)
	if r.Err() == nil || r.OK() {
		t.Fatal("violation not reported")
	}
	if r.Violations[0].Error() == "" {
		t.Fatal("empty error text")
	}
}
