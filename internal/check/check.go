// Package check verifies the abstract MAC layer guarantees of Section 3.2.1
// against a recorded execution: receive correctness, acknowledgment
// correctness, termination, the acknowledgment bound, and the progress
// bound. The engine enforces most safety properties constructively at event
// time; these checkers re-derive every property from the recorded instances
// so that tests validate executions end-to-end, independent of the engine's
// inline assertions — and so adversarial schedulers are proven to stay
// within the model.
//
// Checking costs about what executing the run did: every checker is linear
// in the recorded receives and the senders' adjacency rows, apart from one
// sort of the instances by termination time and at most two binary
// searches per (instance, G-neighbor) pair in ProgressBound. On a clean
// execution All makes a constant number of allocations, whatever the
// network size.
package check

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// ack, and at most EpsAbort after an abort. Receivers come in ascending
// node order, as does the sender's G′ row, so one merge walk of the two
// answers every edge question of an instance.
func ReceiveCorrectness(r *Report, d *topology.Dual, insts []*mac.Instance, p Params) {
	for _, b := range insts {
		row := d.GPrime.Neighbors(b.Sender)
		k := 0
		for to, at := range b.Receivers() {
			if to == b.Sender {
				r.add("receive correctness", "instance %d delivered to its sender %d", b.ID, to)
			}
			for k < len(row) && row[k] < to {
				k++
			}
			if k == len(row) || row[k] != to {
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
// received by every G-neighbor of the sender no later than the ack. Like
// ReceiveCorrectness it merge-walks the receivers, here against the
// sender's G row.
func AckCorrectness(r *Report, d *topology.Dual, insts []*mac.Instance, p Params) {
	for _, b := range insts {
		if b.Term != mac.Acked {
			continue
		}
		row := d.G.Neighbors(b.Sender)
		k := 0
		for to, at := range b.Receivers() {
			for ; k < len(row) && row[k] < to; k++ {
				ackMissing(r, b, row[k])
			}
			if k == len(row) {
				break
			}
			if row[k] == to {
				if at > b.TermAt {
					r.add("ack correctness", "instance %d acked at %v before G-neighbor %d received at %v",
						b.ID, b.TermAt, to, at)
				}
				k++
			}
		}
		for _, v := range row[k:] {
			ackMissing(r, b, v)
		}
	}
}

func ackMissing(r *Report, b *mac.Instance, v mac.NodeID) {
	r.add("ack correctness", "instance %d acked but G-neighbor %d never received", b.ID, v)
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

// spanEnd is when instance b stopped contending: its termination, or the
// observation end while it is still active.
func spanEnd(b *mac.Instance, p Params) sim.Time {
	if b.Terminated() {
		return b.TermAt
	}
	return p.End
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
//
// f depends on the receiver alone, so the starts s = term_i + 1 with
// f(s) − s > Fprog, the receiver's bad starts, are found once per receiver
// (see progressTable). A span [b, T] at G-neighbor j then reports its
// s = b test followed by j's bad starts in [b, T − Fprog), in term order.
// The check costs about what executing the run did: linear in the
// receives, plus one sort of the instances by termination time and at most
// two binary searches per (instance, G-neighbor) pair, with a constant
// number of allocations.
func ProgressBound(r *Report, d *topology.Dual, insts []*mac.Instance, p Params) {
	t := newProgressTable(insts, p)
	for _, b := range insts {
		end := spanEnd(b, p)
		if b.Start > end {
			continue // every candidate start lies past the span
		}
		// Merge-walk the receivers against the sender's G row. A G-neighbor
		// j that b reached at τ ≤ Start + Fprog needs no check: b contends
		// at j through its whole span, so f(s) ≤ τ ≤ s + Fprog for every
		// start s in it.
		row := d.G.Neighbors(b.Sender)
		k := 0
		for to, at := range b.Receivers() {
			for ; k < len(row) && row[k] < to; k++ {
				t.checkPair(r, b, end, row[k], p)
			}
			if k == len(row) {
				break
			}
			if row[k] == to {
				if at-b.Start > p.Fprog {
					t.checkPair(r, b, end, to, p)
				}
				k++
			}
		}
		for _, j := range row[k:] {
			t.checkPair(r, b, end, j, p)
		}
	}
}

// rcvEvent is one receive at a fixed node: when the instance that caused
// it stopped contending (term, its spanEnd) and when it happened (tau). In
// a progressTable, tau is the minimum over this event and every later one
// in term order.
type rcvEvent struct {
	term, tau sim.Time
}

// badStart is a window start s at a fixed receiver whose earliest covering
// receive f = f(s) comes more than Fprog after it.
type badStart struct {
	s, f sim.Time
}

// progressTable holds ProgressBound's per-receiver state for the nodes
// [lo, lo+len(evOff)−1), in CSR form: node lo+x's receives sorted by term
// are ev[evOff[x]:evOff[x+1]], and its bad starts in ascending order are
// bad[badOff[x]:badOff[x+1]]. The range is the one the instance rows span,
// so a call over one component of a larger network sizes its per-node
// offsets by that component alone.
type progressTable struct {
	lo            int
	evOff, badOff []int32
	ev            []rcvEvent
	bad           []badStart
}

// termOrder is an instance index keyed by the instance's spanEnd.
type termOrder struct {
	term sim.Time
	i    int
}

// newProgressTable builds the table in five allocations: a counting pass
// sizes every node's receives, a fill in term order leaves each node's
// receives sorted, a backward pass per node turns tau into suffix minima
// and counts the bad starts, and a forward pass lists them.
func newProgressTable(insts []*mac.Instance, p Params) progressTable {
	lo, hi, total := math.MaxInt, 0, 0
	byTerm := make([]termOrder, 0, len(insts))
	for i, b := range insts {
		if nd := b.NumDelivered(); nd > 0 {
			row := b.Neighbors()
			lo, hi = min(lo, int(row[0])), max(hi, int(row[len(row)-1])+1)
			total += nd
			byTerm = append(byTerm, termOrder{spanEnd(b, p), i})
		}
	}
	if total > math.MaxInt32 {
		panic("check: receive count exceeds int32 offsets")
	}
	if len(byTerm) == 0 {
		lo, hi = 0, 0
	}
	// Equal terms give equal window starts and equal violation text, so
	// the order among them does not matter and the sort need not be stable.
	slices.SortFunc(byTerm, func(a, b termOrder) int { return cmp.Compare(a.term, b.term) })
	span := hi - lo
	t := progressTable{
		lo:     lo,
		evOff:  make([]int32, span+1),
		badOff: make([]int32, span+1),
		ev:     make([]rcvEvent, total),
	}
	for _, o := range byTerm {
		for to := range insts[o.i].Receivers() {
			t.evOff[int(to)-lo+1]++
		}
	}
	for x := range span {
		t.evOff[x+1] += t.evOff[x]
	}
	// evOff[x] serves as node lo+x's write cursor and ends at the start of
	// the next node; the shift after the fill restores the starts.
	for _, o := range byTerm {
		for to, at := range insts[o.i].Receivers() {
			x := int(to) - lo
			t.ev[t.evOff[x]] = rcvEvent{term: o.term, tau: at}
			t.evOff[x]++
		}
	}
	copy(t.evOff[1:], t.evOff[:span])
	t.evOff[0] = 0
	// Backward per node: f(term_i + 1) is the suffix minimum just past the
	// group of events whose term equals term_i.
	nbad := 0
	for x := range span {
		seg := t.ev[t.evOff[x]:t.evOff[x+1]]
		after, sufMin := sim.Infinity, sim.Infinity
		for i := len(seg) - 1; i >= 0; i-- {
			if i+1 < len(seg) && seg[i+1].term != seg[i].term {
				after = sufMin
			}
			if after-(seg[i].term+1) > p.Fprog {
				nbad++
			}
			sufMin = min(sufMin, seg[i].tau)
			seg[i].tau = sufMin
		}
		t.badOff[x+1] = int32(nbad)
	}
	t.bad = make([]badStart, nbad)
	for x := range span {
		w := t.badOff[x]
		if w == t.badOff[x+1] {
			continue
		}
		seg := t.ev[t.evOff[x]:t.evOff[x+1]]
		for i := 0; i < len(seg); {
			g := i + 1
			for g < len(seg) && seg[g].term == seg[i].term {
				g++
			}
			f := sim.Infinity
			if g < len(seg) {
				f = seg[g].tau
			}
			if s := seg[i].term + 1; f-s > p.Fprog {
				for ; i < g; i++ {
					t.bad[w] = badStart{s, f}
					w++
				}
			}
			i = g
		}
	}
	return t
}

// node returns node j's receives (tau holding suffix minima) and bad
// starts; both are empty for a node outside the table's range.
func (t *progressTable) node(j mac.NodeID) ([]rcvEvent, []badStart) {
	x := int(j) - t.lo
	if x < 0 || x >= len(t.evOff)-1 {
		return nil, nil
	}
	return t.ev[t.evOff[x]:t.evOff[x+1]], t.bad[t.badOff[x]:t.badOff[x+1]]
}

// checkPair reports the uncovered windows at G-neighbor j inside b's span
// [b.Start, end]: the s = Start window, then j's bad starts in the span
// that leave more than Fprog of it.
func (t *progressTable) checkPair(r *Report, b *mac.Instance, end sim.Time, j mac.NodeID, p Params) {
	evs, bad := t.node(j)
	i, _ := slices.BinarySearchFunc(evs, b.Start, func(e rcvEvent, s sim.Time) int { return cmp.Compare(e.term, s) })
	e := end
	if i < len(evs) {
		e = min(evs[i].tau, end)
	}
	if e-b.Start > p.Fprog {
		progressViolation(r, b, j, b.Start, e, p)
	}
	i, _ = slices.BinarySearchFunc(bad, b.Start, func(x badStart, s sim.Time) int { return cmp.Compare(x.s, s) })
	for ; i < len(bad) && bad[i].s <= end && end-bad[i].s > p.Fprog; i++ {
		progressViolation(r, b, j, bad[i].s, min(bad[i].f, end), p)
	}
}

func progressViolation(r *Report, b *mac.Instance, j mac.NodeID, s, e sim.Time, p Params) {
	r.add("progress bound",
		"node %d uncovered for %v > Fprog %v from %v while G-neighbor %d was broadcasting instance %d",
		j, e-s, p.Fprog, s, b.Sender, b.ID)
}
