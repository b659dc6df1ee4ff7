// Package mac implements the paper's abstract MAC layer models (Section 2):
// an acknowledged local broadcast service over a dual graph (G, G′) with
// per-execution timing constants Fack and Fprog, in both the standard
// variant (event-driven automata with no clock access) and the enhanced
// variant (timers, knowledge of Fack/Fprog, and an abort interface).
//
// Non-determinism — which G′\G neighbors receive each message, the order of
// receive events, and all timing within the bounds — is delegated to a
// pluggable Scheduler (package sched provides benign, contention-based and
// adversarial implementations). The engine records every broadcast instance
// so package check can verify the model guarantees (receive correctness,
// acknowledgment correctness, termination, and both time bounds) after a
// run.
package mac

import (
	"fmt"
	"iter"
	"math/bits"
	"math/rand"

	"amac/internal/graph"
	"amac/internal/sim"
)

// NodeID aliases graph.NodeID; nodes are dense integers in [0, n).
type NodeID = graph.NodeID

// InstanceID uniquely identifies one broadcast instance (one bcast event
// and all rcv/ack/abort events caused by it). The paper assumes all local
// broadcast messages are unique; instance IDs realize that assumption.
type InstanceID int64

// Payload aliases sim.Payload: the typed message representation broadcasts,
// arrivals and trace events carry. Algorithms register their own kinds via
// sim.RegisterPayloadKind.
type Payload = sim.Payload

// Int wraps a bare integer payload.
func Int(v int64) Payload { return sim.Int(v) }

// Message is what a receiver sees: the payload together with the sending
// node. On a rcv, Reliable is the G-edge bit of the link the message came
// over — true exactly when Sender is in the receiver's GNeighbors() — which
// the engine read from the delivery slot anyway, so automata that treat
// reliable and grey senders apart (Section 2 lets nodes tell them apart)
// need no search of their own. On an ack, whose Sender is the acked node
// itself, it is false.
//
// A Message is six words, so Recv and Acked through the Automaton
// interface pass it in registers: with the receiver and the two-word
// Context that is amd64's nine integer argument registers. No automaton
// reads the carrying instance's id, and one more word would put the
// message on the stack on every reception.
type Message struct {
	Sender   NodeID
	Reliable bool
	Payload  Payload
}

// Mode selects which abstract MAC layer variant the engine exposes.
type Mode int

const (
	// Standard is the standard abstract MAC layer: event-driven automata,
	// no clock access, no abort.
	Standard Mode = iota + 1
	// Enhanced adds time (timers), knowledge of Fack and Fprog, and the
	// abort interface (Section 4).
	Enhanced
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Standard:
		return "standard"
	case Enhanced:
		return "enhanced"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Context is the interface the standard abstract MAC layer presents to a
// node automaton. All methods must be called only from within automaton
// callbacks (the engine is single-threaded).
type Context interface {
	// ID returns the node's unique identifier.
	ID() NodeID
	// N returns the network size n (nodes know n, as required by the
	// paper's w.h.p. guarantees).
	N() int
	// Bcast initiates an acknowledged local broadcast. User
	// well-formedness (Section 3.2.1) requires no broadcast be pending;
	// violating that panics.
	Bcast(payload Payload)
	// Pending reports whether a broadcast awaits its ack/abort.
	Pending() bool
	// GNeighbors returns the node's reliable neighbors (sorted). Nodes can
	// distinguish G from G′ neighbors, as justified in Section 2.
	GNeighbors() []NodeID
	// GPrimeNeighbors returns the node's G′ neighbors (sorted).
	GPrimeNeighbors() []NodeID
	// Rand returns this node's deterministic private random stream.
	Rand() *rand.Rand
	// Emit appends an algorithm-level event to the execution trace.
	Emit(kind string, arg Payload)
}

// EnhancedContext extends Context with the extra powers of the enhanced
// abstract MAC layer. Calling these in Standard mode panics.
type EnhancedContext interface {
	Context
	// Now returns the current virtual time.
	Now() sim.Time
	// Fack returns the execution's acknowledgment bound.
	Fack() sim.Time
	// Fprog returns the execution's progress bound.
	Fprog() sim.Time
	// SetTimer schedules a Timer callback d ticks from now.
	SetTimer(d sim.Duration)
	// Abort aborts the pending broadcast; no-op if none is pending.
	Abort()
}

// Automaton is a node program for the standard layer. Implementations
// receive an EnhancedContext when the engine runs in Enhanced mode (the
// static type is Context; type-assert or use the helpers in this package).
type Automaton interface {
	// Wakeup fires once per node at time zero, before any other event.
	Wakeup(ctx Context)
	// Recv delivers a message from the MAC layer.
	Recv(ctx Context, m Message)
	// Acked reports completion of the node's current broadcast.
	Acked(ctx Context, m Message)
}

// Arriver is implemented by automata that accept environment inputs
// (the MMB arrive(m) event).
type Arriver interface {
	Arrive(ctx Context, payload Payload)
}

// Resettable is implemented by automata that can restore themselves to
// their initial, pre-Wakeup state. Fleets of resettable automata are reused
// across repeated executions on a warm Arena instead of being rebuilt per
// trial; Reset must leave the automaton observably indistinguishable from a
// freshly constructed one, so executions are identical either way.
type Resettable interface {
	Reset()
}

// TimerHandler is implemented by enhanced-model automata that set timers.
type TimerHandler interface {
	Timer(ctx EnhancedContext)
}

// Status classifies a broadcast instance's terminating event.
type Status int

const (
	// Active means the instance has not yet been acked or aborted.
	Active Status = iota
	// Acked means the instance terminated with an acknowledgment.
	Acked
	// Aborted means the sender aborted the instance.
	Aborted
)

// Instance records one broadcast instance: the bcast event and everything
// the cause function maps to it. Checkers consume these records.
//
// Delivery state is degree-indexed, CSR style: the instance shares the
// sender's sorted G′ adjacency row with the topology and keeps one rcv time
// per neighbor slot, so per-instance memory is O(deg′(sender)) — O(m) over
// any workload — instead of the dense O(n) slice that dominated memory on
// large sparse networks. That row is the only record of who received the
// instance and when: there is no separate receiver list, NumDelivered is a
// counter, and Receivers reads the row back in slot (ascending node) order.
// The engine's reliable batch and grey draws (GreySlots) walk the row's
// reliability words by slot, and grey batches deliver by slot; lookups by
// node binary-search it (O(log d)); the remaining-reliable counter keeps the
// ack-readiness check O(1). Outside the engine (the real-time executor,
// checker tests building histories), construct instances with NewInstance
// and record deliveries with MarkDelivered, which accepts only nodes of the
// row and times ≥ 0 — the domain every execution stays in.
type Instance struct {
	ID      InstanceID
	Sender  NodeID
	Payload Payload
	Start   sim.Time
	// TermAt is the time of the terminating event (ack or abort);
	// meaningful only when Term != Active.
	TermAt sim.Time
	Term   Status

	// nbrs is the sender's sorted G′ neighbor row — for engine-built
	// instances, a zero-copy subslice of the graph's flat CSR arc array.
	nbrs []NodeID
	// deliveredAt[i] is the rcv time at nbrs[i] plus one; zero means not
	// delivered. The +1 bias lets the slice start as plain zeroed memory
	// (real rcv times are ≥ 0), so NewInstance is a single make with no
	// fill; arena-built instances carve the row out of one flat pre-zeroed
	// block instead.
	deliveredAt []sim.Time
	// arena is the arena the instance was carved from (nil on NewInstance
	// records, which only checkers build); base is the sender's row offset
	// into the global arc array of the arena's delivery index, so slot s of
	// this instance is global arc base+s — where the reliability bit lives.
	arena *Arena
	base  int32
	// grey holds the row slots of a pending grey batch delivery (see
	// API.ScheduleGreyDeliveries).
	grey []int32
	// greybuf holds the grey candidate slots schedulers draw from
	// (GreySlots): carved from the arena's grey block on first use in an
	// execution, with room for every G′\G neighbor, so it never grows.
	greybuf []int32
	// delivered counts the nodes that have received the instance.
	delivered int
	// remainingReliable counts the sender's G-neighbors yet to receive.
	remainingReliable int
}

// NewInstance returns an instance record for a sender whose sorted G′
// adjacency row is gPrimeNbrs (shared, not copied) and who has reliableDeg
// G-neighbors. The row bounds which nodes MarkDelivered accepts; checker
// tests building histories the engine would reject pass a row that holds
// every node they mark.
func NewInstance(id InstanceID, sender NodeID, payload Payload, start sim.Time, gPrimeNbrs []NodeID, reliableDeg int) *Instance {
	return &Instance{
		ID:                id,
		Sender:            sender,
		Payload:           payload,
		Start:             start,
		nbrs:              gPrimeNbrs,
		deliveredAt:       make([]sim.Time, len(gPrimeNbrs)),
		remainingReliable: reliableDeg,
	}
}

// SlotOf returns the index of to in the sender's sorted neighbor row — its
// delivery slot — or -1, by binary search: engine-built instances share the
// graph's own row and need no separate position table. Rows are node
// degrees, so the search is a handful of comparisons on the sparse
// networks the model studies. Schedulers that name receivers by node look
// the slot up here once and hand it to API.Deliver.
func (b *Instance) SlotOf(to NodeID) int {
	lo, hi := 0, len(b.nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.nbrs[mid] < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b.nbrs) && b.nbrs[lo] == to {
		return lo
	}
	return -1
}

// MarkDelivered records the rcv of the instance at node to at time at.
// reliable marks a delivery to a G-neighbor of the sender, decrementing the
// counter AllReliableDelivered consults. It performs no model validation
// (mac.Engine.Deliver does; checkers deliberately build invalid histories)
// but panics on a node outside the row, a negative time (the clock never
// goes below zero, and the row's +1 bias would read it as never delivered)
// and a duplicate, which every caller is expected to screen out.
func (b *Instance) MarkDelivered(to NodeID, at sim.Time, reliable bool) {
	s := b.SlotOf(to)
	switch {
	case s < 0:
		panic(fmt.Sprintf("mac: MarkDelivered of instance %d at %d, outside the sender's row", b.ID, to))
	case at < 0:
		panic(fmt.Sprintf("mac: MarkDelivered of instance %d at %d at negative time %v", b.ID, to, at))
	case b.deliveredAt[s] != 0:
		panic(fmt.Sprintf("mac: duplicate MarkDelivered of instance %d at %d", b.ID, to))
	}
	b.deliveredAt[s] = at + 1
	b.delivered++
	if reliable {
		b.remainingReliable--
	}
}

// Neighbors returns the sender's sorted G′ neighbor row. Position i of the
// row is the instance's delivery slot i, which SlotDelivered and
// SlotReliable read without searching. The row is shared with the graph;
// callers must not mutate it.
func (b *Instance) Neighbors() []NodeID { return b.nbrs }

// SlotDelivered reports whether Neighbors()[i] has received the instance.
func (b *Instance) SlotDelivered(i int) bool { return b.deliveredAt[i] != 0 }

// SlotReliable reports whether the link to Neighbors()[i] is a G edge: the
// arena's reliability bit for that arc, the fact G.HasEdge would look up.
// Only engine-built instances carry the bits; schedulers see no others.
func (b *Instance) SlotReliable(i int) bool { return b.arena.isReliable(b.base + int32(i)) }

// GreySlots returns the row slots of the sender's G′\G neighbors — the
// slots whose reliability bit is clear — in ascending order, read off the
// arena's reliability words a word at a time. Schedulers select their grey
// targets by filtering it in place and hand the result to
// API.ScheduleGreyDeliveries, or deliver to Neighbors()[slot] themselves.
// The slice is the instance's grey buffer: on an engine-built instance it
// is carved from the arena's flat grey block on the first call of the
// execution, with capacity deg′ − deg, exactly the candidates, so no call
// grows it, warm or cold, and schedulers that never draw grey targets
// reserve nothing. A NewInstance record has no arena and gets nil. The
// buffer must not be used while a grey batch is pending (at most one may
// be, and an instance broadcasts once, so the window cannot arise in a
// well-formed execution).
//
//amac:hotpath
func (b *Instance) GreySlots() []int32 {
	a := b.arena
	if a == nil {
		return nil
	}
	if b.greybuf == nil {
		b.greybuf = a.greyRow(len(b.nbrs) - a.dual.G.Degree(b.Sender))
	}
	out := b.greybuf[:0]
	lo, hi := int(b.base), int(b.base)+len(b.nbrs)
	for w := lo >> 6; w<<6 < hi; w++ {
		for clr := ^a.reliable[w] & spanMask(w, lo, hi); clr != 0; clr &= clr - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(clr)-lo))
		}
	}
	return out
}

// WasDelivered reports whether node to has received the instance.
func (b *Instance) WasDelivered(to NodeID) bool {
	s := b.SlotOf(to)
	return s >= 0 && b.deliveredAt[s] != 0
}

// DeliveredAt returns the rcv time at node to, and whether it received.
func (b *Instance) DeliveredAt(to NodeID) (sim.Time, bool) {
	if s := b.SlotOf(to); s >= 0 && b.deliveredAt[s] != 0 {
		return b.deliveredAt[s] - 1, true
	}
	return 0, false
}

// Receivers yields every node that received the instance with its rcv
// time, in slot order — ascending node ID, which is not delivery order. It
// reads the row the engine writes at delivery time; no receiver list is
// kept.
func (b *Instance) Receivers() iter.Seq2[NodeID, sim.Time] {
	return func(yield func(NodeID, sim.Time) bool) {
		for i, at := range b.deliveredAt {
			if at != 0 && !yield(b.nbrs[i], at-1) {
				return
			}
		}
	}
}

// NumDelivered reports how many nodes have received the instance.
func (b *Instance) NumDelivered() int { return b.delivered }

// AllReliableDelivered reports whether every G-neighbor of the sender has
// received the instance — the ack-readiness condition, in O(1).
func (b *Instance) AllReliableDelivered() bool { return b.remainingReliable == 0 }

// Terminated reports whether the instance has been acked or aborted.
func (b *Instance) Terminated() bool { return b.Term != Active }
