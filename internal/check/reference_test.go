package check

import (
	"sort"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// This file keeps the straightforward checkers the flat-table ones in
// check.go replaced: per-receiver HasEdge and DeliveredAt searches, and a
// progress check that rescans every receive at a G-neighbor for each
// instance. They are the oracle TestAllMatchesReference and
// FuzzAllMatchesReference compare All against, entry for entry.

// refAll is All over the reference checkers.
func refAll(d *topology.Dual, insts []*mac.Instance, p Params) *Report {
	r := &Report{}
	refReceiveCorrectness(r, d, insts, p)
	refAckCorrectness(r, d, insts, p)
	Termination(r, insts, p)
	AckBound(r, insts, p)
	refProgressBound(r, d, insts, p)
	return r
}

func refReceiveCorrectness(r *Report, d *topology.Dual, insts []*mac.Instance, p Params) {
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

func refAckCorrectness(r *Report, d *topology.Dual, insts []*mac.Instance, p Params) {
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

func refProgressBound(r *Report, d *topology.Dual, insts []*mac.Instance, p Params) {
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
