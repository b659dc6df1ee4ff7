package core

import "amac/internal/mac"

// BMMB is the Basic Multi-Message Broadcast protocol of Section 3: every
// process keeps a FIFO queue bcastq and a set rcvd, both initially empty.
// On first learning a message — from the environment (arrive) or the MAC
// layer (rcv) — the process delivers it, appends it to bcastq and records
// it in rcvd; duplicates are discarded. Whenever the process is not waiting
// for an acknowledgment and bcastq is non-empty, it immediately broadcasts
// the head of the queue; the head is removed when its ack returns.
//
// BMMB runs unchanged in the standard abstract MAC layer: it uses no
// timers, no aborts and no knowledge of Fack/Fprog.
//
// rcvd is a bitset indexed by Msg.ID (a msgSet): a reception — nearly
// always a duplicate, since every node rebroadcasts what it learns — costs
// one bit test. Its first word lives in the record itself, so for k ≤ 64
// that test reads the record the reception already touched.
type BMMB struct {
	bcastq []Msg
	head   int    // index of the queue head; popped entries stay until Reset
	rcvd   msgSet // holds m.ID once m has been received
}

var (
	_ mac.Automaton  = (*BMMB)(nil)
	_ mac.Arriver    = (*BMMB)(nil)
	_ mac.Resettable = (*BMMB)(nil)
)

// Reset implements mac.Resettable: the process returns to its initial
// state (empty queue, empty rcvd set), keeping the bitset and queue
// capacity so reused fleets run allocation-free.
func (b *BMMB) Reset() {
	b.bcastq = b.bcastq[:0]
	b.head = 0
	b.rcvd.reset()
}

// Queue returns the current queue contents (a copy), for tests and debug
// inspection.
func (b *BMMB) Queue() []Msg { return append([]Msg(nil), b.bcastq[b.head:]...) }

// Received reports whether m has been received: the rcvd set, keyed by
// Msg.ID alone.
func (b *BMMB) Received(m Msg) bool { return b.rcvd.has(m.ID) }

// Wakeup implements mac.Automaton. BMMB is purely message-driven.
func (b *BMMB) Wakeup(ctx mac.Context) {}

// Arrive implements mac.Arriver: the environment injects a message.
func (b *BMMB) Arrive(ctx mac.Context, payload mac.Payload) {
	b.learn(ctx, mustMsg(payload))
}

// Recv implements mac.Automaton.
func (b *BMMB) Recv(ctx mac.Context, m mac.Message) {
	b.learn(ctx, mustMsg(m.Payload))
}

// learn processes the first sighting of a message: deliver, record, queue,
// and start broadcasting if idle.
func (b *BMMB) learn(ctx mac.Context, m Msg) {
	if b.rcvd.has(m.ID) {
		return
	}
	b.rcvd.add(m.ID)
	ctx.Emit(DeliverKind, m.Payload())
	b.bcastq = append(b.bcastq, m)
	b.maybeSend(ctx)
}

// Acked implements mac.Automaton: the head of the queue completed.
func (b *BMMB) Acked(ctx mac.Context, m mac.Message) {
	if b.head >= len(b.bcastq) || b.bcastq[b.head] != mustMsg(m.Payload) {
		panic("core: BMMB ack does not match queue head")
	}
	b.head++
	b.maybeSend(ctx)
}

func (b *BMMB) maybeSend(ctx mac.Context) {
	if !ctx.Pending() && b.head < len(b.bcastq) {
		ctx.Bcast(b.bcastq[b.head].Payload())
	}
}

// NewBMMBFleet returns one BMMB automaton per node, as the runner expects.
// The records are one contiguous []BMMB, so the fleet is two allocations
// and neighbouring nodes' records share no pointers to chase.
func NewBMMBFleet(n int) []mac.Automaton {
	out := make([]mac.Automaton, n)
	recs := make([]BMMB, n)
	for i := range recs {
		out[i] = &recs[i]
	}
	return out
}
