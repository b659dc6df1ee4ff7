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
// node and the instance that carried it.
type Message struct {
	Instance InstanceID
	Sender   NodeID
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
// large sparse networks. Lookups binary-search the row (O(log d)); the
// remaining-reliable counter keeps the ack-readiness check O(1). Marks
// addressed outside the row (checkers deliberately build invalid histories)
// spill into a lazily allocated overflow map that real executions never
// touch. Outside the engine (checker tests building histories), construct
// instances with NewInstance and record deliveries with MarkDelivered.
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
	// csr is the arena's shared delivery index (nil on NewInstance
	// records, which only checkers build); base is the sender's row offset
	// into its global arc array, so slot s of this instance is global arc
	// base+s — where the reliability bit lives.
	csr  *csrIndex
	base int32
	// overflow records marks outside the row's domain — nodes that are not
	// G′ neighbors, or negative rcv times, both only constructible by
	// checker tests building invalid histories; nil in every real
	// execution. Values carry the same +1 bias as the row, but lookups are
	// existence-based so a delivery at time −1 (biased to 0) is still
	// distinguishable from "never delivered".
	overflow map[NodeID]sim.Time
	// grey holds the drawn unreliable targets of a pending batch delivery
	// (see API.ScheduleGreyDeliveries).
	grey []NodeID
	// greybuf is the reusable backing store schedulers draw grey targets
	// into (GreyBuf). Its capacity survives the batch firing and arena
	// instance recycling, so steady-state grey draws allocate nothing.
	greybuf []NodeID
	// receivers lists delivered nodes in delivery order.
	receivers []NodeID
	// remainingReliable counts the sender's G-neighbors yet to receive.
	remainingReliable int
}

// NewInstance returns an instance record for a sender whose sorted G′
// adjacency row is gPrimeNbrs (shared, not copied) and who has reliableDeg
// G-neighbors. A nil row is legal and routes every mark through the
// overflow map — checker tests building histories without a topology use
// that.
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

// slot returns the index of to in the sender's sorted neighbor row, or -1,
// by binary search — engine-built instances share the graph's own row and
// need no separate position table. Rows are node
// degrees, so the search is a handful of comparisons on the sparse
// networks the model studies.
func (b *Instance) slot(to NodeID) int {
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
// but panics on duplicates, which every caller is expected to screen out.
// Negative times — constructible only by checkers, since the engine's clock
// never goes below zero — are routed through the overflow map, whose
// existence-based lookups survive the +1 bias collapsing at+1 to zero.
func (b *Instance) MarkDelivered(to NodeID, at sim.Time, reliable bool) {
	s := b.slot(to)
	// The duplicate check spans both domains with the one slot lookup
	// above: a node may have been marked through either its row (real
	// time) or the overflow map (negative time or no row slot).
	if delivered := s >= 0 && b.deliveredAt[s] != 0; delivered || b.inOverflow(to) {
		panic(fmt.Sprintf("mac: duplicate MarkDelivered of instance %d at %d", b.ID, to))
	}
	if s >= 0 && at >= 0 {
		b.deliveredAt[s] = at + 1
	} else {
		if b.overflow == nil {
			b.overflow = make(map[NodeID]sim.Time)
		}
		b.overflow[to] = at + 1
	}
	b.receivers = append(b.receivers, to)
	if reliable {
		b.remainingReliable--
	}
}

// GreyBuf returns the instance's reusable grey-target scratch buffer,
// emptied. Schedulers append their drawn unreliable targets into it and hand
// the result to API.ScheduleGreyDeliveries (which stores the possibly-grown
// slice back); the capacity survives across arena instance recycling, so a
// warm run's grey draws allocate nothing. The buffer must not be used while
// a grey batch is pending (at most one may be, and an instance broadcasts
// once, so the window cannot arise in a well-formed execution).
func (b *Instance) GreyBuf() []NodeID { return b.greybuf[:0] }

// SetGreyBuf stores a possibly-grown scratch slice back on the instance, so
// growth during a draw is retained even when the scheduler delivers the
// targets itself instead of handing them to ScheduleGreyDeliveries.
func (b *Instance) SetGreyBuf(s []NodeID) { b.greybuf = s }

// inOverflow reports whether to was marked through the overflow map.
func (b *Instance) inOverflow(to NodeID) bool {
	_, ok := b.overflow[to]
	return ok
}

// WasDelivered reports whether node to has received the instance.
func (b *Instance) WasDelivered(to NodeID) bool {
	if s := b.slot(to); s >= 0 && b.deliveredAt[s] != 0 {
		return true
	}
	return b.inOverflow(to)
}

// DeliveredAt returns the rcv time at node to, and whether it received.
func (b *Instance) DeliveredAt(to NodeID) (sim.Time, bool) {
	if s := b.slot(to); s >= 0 && b.deliveredAt[s] != 0 {
		return b.deliveredAt[s] - 1, true
	}
	if biased, ok := b.overflow[to]; ok {
		return biased - 1, true
	}
	return 0, false
}

// Receivers returns the nodes that received the instance, in delivery
// order. The slice is owned by the instance; callers must not mutate it.
func (b *Instance) Receivers() []NodeID { return b.receivers }

// NumDelivered reports how many nodes have received the instance.
func (b *Instance) NumDelivered() int { return len(b.receivers) }

// AllReliableDelivered reports whether every G-neighbor of the sender has
// received the instance — the ack-readiness condition, in O(1).
func (b *Instance) AllReliableDelivered() bool { return b.remainingReliable == 0 }

// Terminated reports whether the instance has been acked or aborted.
func (b *Instance) Terminated() bool { return b.Term != Active }
