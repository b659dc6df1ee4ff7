// Package sched provides concrete message schedulers for the abstract MAC
// layer engine. The model (Section 2 of the paper) leaves the choice of
// which G′\G neighbors receive each message, the order of receive events,
// and all timing — within the Fack/Fprog bounds — to an arbitrary
// scheduler. Upper-bound claims are quantified over all schedulers, so this
// package supplies a spectrum:
//
//   - Sync: deterministic benign timing (receives at Fprog, acks at Fack by
//     default). With full ack delay it realizes the worst case of the
//     reliable-network bound and the Lemma 3.18 star-choke bound.
//   - Random: timing drawn uniformly inside the bounds.
//   - Contention: a receiver-slot model (one delivery per receiver per
//     Fprog) with earliest-deadline-first selection, realizing Fprog ≪ Fack
//     behavior organically.
//   - Slot: globally slot-synchronous delivery for the enhanced model;
//     FMMB's lock-step rounds run on it.
//   - ParallelLines: the adversarial schedule of Lemmas 3.19/3.20 against
//     BMMB on the Figure 2 network.
//
// Every shipped scheduler satisfies the model guarantees; package check
// re-verifies that on each test run.
package sched

import (
	"fmt"
	"math/rand"

	"amac/internal/mac"
)

// Reliability decides whether a given G′\G neighbor receives a given
// broadcast instance. It is consulted once per (instance, receiver) pair.
type Reliability interface {
	// Name identifies the policy in reports.
	Name() string
	// Deliver reports whether the unreliable link fires for this pair.
	Deliver(rng *rand.Rand, b *mac.Instance, to mac.NodeID) bool
}

// Always delivers on every unreliable link (G′ behaves like G).
type Always struct{}

// Name implements Reliability.
func (Always) Name() string { return "always" }

// Deliver implements Reliability.
func (Always) Deliver(*rand.Rand, *mac.Instance, mac.NodeID) bool { return true }

// Never suppresses every unreliable link (only reliable edges carry
// messages).
type Never struct{}

// Name implements Reliability.
func (Never) Name() string { return "never" }

// Deliver implements Reliability.
func (Never) Deliver(*rand.Rand, *mac.Instance, mac.NodeID) bool { return false }

// Bernoulli delivers on each unreliable link independently with
// probability P.
type Bernoulli struct{ P float64 }

// Name implements Reliability.
func (r Bernoulli) Name() string { return fmt.Sprintf("bernoulli(%.2f)", r.P) }

// Deliver implements Reliability.
func (r Bernoulli) Deliver(rng *rand.Rand, _ *mac.Instance, _ mac.NodeID) bool {
	return rng.Float64() < r.P
}

// Resettable is implemented by schedulers that can be re-armed for a new
// execution without rebuilding: Reset rebinds whatever the registry factory
// derived from the environment (tracked payloads, topology artifacts) and
// clears cross-run reliability state. It reports whether the scheduler could
// be adapted to env; false means the caller must Build a fresh one. Per-run
// working state is re-initialized by Attach, which the engine invokes at the
// start of every execution, so Reset + Attach is observably identical to a
// fresh factory build + Attach.
type Resettable interface {
	Reset(env Env) bool
}

// resetRel re-arms a stateful reliability policy (e.g. *Flaky) for a new
// execution. Stateless policies need nothing.
func resetRel(rel Reliability) {
	if r, ok := rel.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// greyTargets returns the row slots of the G′\G neighbors of b's sender
// that rel selects, in ascending slot order — the order rel is consulted
// in, so the random stream is drawn as one consultation per candidate
// would draw it. The candidates come from one word scan of the row
// (mac.Instance.GreySlots) and are filtered in place; the scheduler's
// stream is fetched once per broadcast, and constant-p Bernoulli draws
// without going through the Reliability interface. The result is backed
// by the instance's grey buffer, so steady-state draws allocate nothing;
// it is valid until b's next broadcast.
//
//amac:hotpath
func greyTargets(api mac.API, b *mac.Instance, rel Reliability) []int32 {
	if rel == nil {
		return nil
	}
	slots := b.GreySlots()
	if len(slots) == 0 {
		return slots
	}
	rng, out := api.Rand(), slots[:0]
	if r, ok := rel.(Bernoulli); ok {
		for _, s := range slots {
			if rng.Float64() < r.P {
				out = append(out, s)
			}
		}
		return out
	}
	nbrs := b.Neighbors()
	for _, s := range slots {
		if rel.Deliver(rng, b, nbrs[s]) {
			out = append(out, s)
		}
	}
	return out
}
