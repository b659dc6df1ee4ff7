// Package check verifies the abstract MAC layer guarantees of Section 3.2.1
// against a recorded execution: receive correctness, acknowledgment
// correctness, termination, the acknowledgment bound, and the progress
// bound. The engine enforces most safety properties constructively at event
// time; these checkers re-derive every property from the recorded instances
// so that tests validate executions end-to-end, independent of the engine's
// inline assertions — and so adversarial schedulers are proven to stay
// within the model.
package check

import (
	"fmt"
	"sort"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// Violation describes one failed model guarantee.
type Violation struct {
	Property string
	Detail   string
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("check: %s violated: %s", v.Property, v.Detail)
}

// Report aggregates the violations found in one execution.
type Report struct {
	Violations []Violation
}

// OK reports whether no guarantee was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when OK, else the first violation.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return r.Violations[0]
}

func (r *Report) add(prop, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Property: prop,
		Detail:   fmt.Sprintf(format, args...),
	})
}

// Params carries the model constants an execution ran under.
type Params struct {
	Fack     sim.Time
	Fprog    sim.Time
	EpsAbort sim.Time
	// End is the time the execution was observed until; instances still
	// active at End are exempt from the termination check.
	End sim.Time
}

// All runs every model checker and returns the combined report.
func All(d *topology.Dual, insts []*mac.Instance, p Params) *Report {
	r := &Report{}
	ReceiveCorrectness(r, d, insts, p)
	AckCorrectness(r, d, insts, p)
	Termination(r, insts, p)
	AckBound(r, insts, p)
	ProgressBound(r, d, insts, p)
	return r
}

// ReceiveCorrectness checks Section 3.2.1 property 1: every rcv of an
// instance goes to a G′ neighbor of the sender at most once, not after the
// ack, and at most EpsAbort after an abort.
func ReceiveCorrectness(r *Report, d *topology.Dual, insts []*mac.Instance, p Params) {
	for _, b := range insts {
		for to, at := range b.Receivers() {
			if to == b.Sender {
				r.add("receive correctness", "instance %d delivered to its sender %d", b.ID, to)
			}
			if !d.GPrime.HasEdge(b.Sender, to) {
				r.add("receive correctness", "instance %d delivered %d→%d without a G' edge",
					b.ID, b.Sender, to)
			}
			if at < b.Start {
				r.add("receive correctness", "instance %d delivered to %d at %v before bcast %v",
					b.ID, to, at, b.Start)
			}
			switch b.Term {
			case mac.Acked:
				if at > b.TermAt {
					r.add("receive correctness", "instance %d delivered to %d at %v after ack %v",
						b.ID, to, at, b.TermAt)
				}
			case mac.Aborted:
				if at > b.TermAt+p.EpsAbort {
					r.add("receive correctness",
						"instance %d delivered to %d at %v, later than abort %v + eps %v",
						b.ID, to, at, b.TermAt, p.EpsAbort)
				}
			}
		}
	}
}

// AckCorrectness checks Section 3.2.1 property 2: an acked instance was
// received by every G-neighbor of the sender no later than the ack.
func AckCorrectness(r *Report, d *topology.Dual, insts []*mac.Instance, p Params) {
	for _, b := range insts {
		if b.Term != mac.Acked {
			continue
		}
		for _, v := range d.G.Neighbors(b.Sender) {
			at, ok := b.DeliveredAt(v)
			if !ok {
				r.add("ack correctness", "instance %d acked but G-neighbor %d never received",
					b.ID, v)
				continue
			}
			if at > b.TermAt {
				r.add("ack correctness", "instance %d acked at %v before G-neighbor %d received at %v",
					b.ID, b.TermAt, v, at)
			}
		}
	}
}

// Termination checks Section 3.2.1 property 3: every bcast terminates with
// an ack or abort. Instances whose Fack window extends past the observation
// end are exempt (the model still has time to ack them).
func Termination(r *Report, insts []*mac.Instance, p Params) {
	for _, b := range insts {
		if b.Term == mac.Active && b.Start+p.Fack < p.End {
			r.add("termination", "instance %d from %d started at %v never terminated (observed to %v)",
				b.ID, b.Sender, b.Start, p.End)
		}
	}
}

// AckBound checks Section 3.2.1 property 4: ack within Fack of the bcast.
func AckBound(r *Report, insts []*mac.Instance, p Params) {
	for _, b := range insts {
		if b.Term == mac.Acked && b.TermAt > b.Start+p.Fack {
			r.add("acknowledgment bound", "instance %d acked after %v > Fack %v",
				b.ID, b.TermAt-b.Start, p.Fack)
		}
	}
}

// rcvEvent is one receive at a fixed node: when it happened (tau) and when
// the instance that caused it terminated (term; the observation end for
// instances still active).
type rcvEvent struct {
	tau, term sim.Time
}

// ProgressBound checks Section 3.2.1 property 5 by interval analysis. A
// window [s, e] with e − s > Fprog witnesses a violation at receiver j iff
// (b) some instance from a G-neighbor of j spans [s, e] entirely
// (connect(α′, j) ≠ ∅), and (c) no rcv_j event from a contending instance
// occurs by the end of the window. Following the paper's use of the bound
// in Lemmas 3.9/3.10, a receive covers the window if it happens at any time
// τ ≤ e — even before s — provided its instance had not terminated before s
// (so the instance is in contend(α′, j)).
//
// For fixed s, the earliest covering receive time is
// f(s) = min{τ : term(instance) ≥ s}; a violation inside a connect span
// [b, T] exists iff min(f(s), T) − s > Fprog for some s ∈ [b, T]. Since
// f is a non-decreasing step function that only jumps just after a
// termination time, it suffices to test s = b and s = term_i + 1 for each
// receive event i.
func ProgressBound(r *Report, d *topology.Dual, insts []*mac.Instance, p Params) {
	n := d.N()
	events := make([][]rcvEvent, n)
	for _, b := range insts {
		termAt := p.End
		if b.Terminated() {
			termAt = b.TermAt
		}
		for to, at := range b.Receivers() {
			events[to] = append(events[to], rcvEvent{tau: at, term: termAt})
		}
	}
	// Per receiver: sort by term ascending and precompute suffix minima of
	// tau, so f(s) is a binary search plus a lookup.
	sufMin := make([][]sim.Time, n)
	for j := 0; j < n; j++ {
		evs := events[j]
		sort.Slice(evs, func(a, b int) bool { return evs[a].term < evs[b].term })
		sm := make([]sim.Time, len(evs)+1)
		sm[len(evs)] = sim.Infinity
		for i := len(evs) - 1; i >= 0; i-- {
			sm[i] = min(sm[i+1], evs[i].tau)
		}
		sufMin[j] = sm
	}
	f := func(j int, s sim.Time) sim.Time {
		evs := events[j]
		lo := sort.Search(len(evs), func(i int) bool { return evs[i].term >= s })
		return sufMin[j][lo]
	}
	for _, b := range insts {
		spanEnd := p.End
		if b.Terminated() {
			spanEnd = b.TermAt
		}
		for _, jn := range d.G.Neighbors(b.Sender) {
			j := int(jn)
			// Candidate window starts: the span start, plus just after
			// each termination of a receive's instance inside the span.
			check := func(s sim.Time) {
				if s < b.Start || s > spanEnd {
					return
				}
				e := min(f(j, s), spanEnd)
				if e-s > p.Fprog {
					r.add("progress bound",
						"node %d uncovered for %v > Fprog %v from %v while G-neighbor %d was broadcasting instance %d",
						j, e-s, p.Fprog, s, b.Sender, b.ID)
				}
			}
			check(b.Start)
			for _, ev := range events[j] {
				check(ev.term + 1)
			}
		}
	}
}
