package sim

// event is a scheduled callback in virtual time. Events with equal times fire
// in insertion order (seq), which makes executions fully deterministic.
//
// An event is typed: a kind plus the small fixed operand set (obj, a, b, p),
// executed by the engine's Dispatcher. Scheduling therefore allocates no
// closures at all.
//
// Events are pooled: once popped and executed, the engine recycles the
// struct through a free list, so steady-state scheduling performs no heap
// allocation. Nothing outside the queue holds an event, so a released struct
// can be handed straight to the next tenancy.
type event struct {
	at   Time
	seq  uint64
	obj  any     // typed payload: object operand (a pointer; boxing is free)
	a, b int64   // typed payload: scalar operands
	p    Payload // typed payload: message operand (carried unboxed)
	kind EventKind
}

// freeFloor is the minimum free-list length the shrink rule never cuts
// below, so small engines keep a warm pool across bursts.
const freeFloor = 64

// eventQueue is a binary min-heap of events ordered by (at, seq). It is a
// hand-rolled heap rather than container/heap to keep the hot path free of
// interface conversions; the simulator spends most of its time here.
type eventQueue struct {
	items []*event
	free  []*event // recycled events ready for reuse
}

// Len reports the number of events still queued.
func (q *eventQueue) Len() int { return len(q.items) }

// alloc returns a recycled event or a fresh one when the pool is empty. The
// caller fills in the payload (kind + operands).
//
//amac:hotpath
func (q *eventQueue) alloc(at Time, seq uint64) *event {
	if n := len(q.free); n > 0 {
		ev := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		ev.at, ev.seq = at, seq
		return ev
	}
	return &event{at: at, seq: seq}
}

// release returns a popped event to the pool. Dropping obj releases the
// object reference, and clearing p keeps a later Post, which sets only obj,
// from carrying this tenancy's payload. The pool is bounded: a delivery
// burst must not pin its peak event count for the rest of the run, so
// whenever the free list exceeds twice the live queue (plus a small floor),
// the excess structs are dropped for the collector.
//
//amac:hotpath
func (q *eventQueue) release(ev *event) {
	ev.obj = nil
	ev.p = Payload{}
	q.free = append(q.free, ev)
	if limit := 2*len(q.items) + freeFloor; len(q.free) > limit {
		for i := limit; i < len(q.free); i++ {
			q.free[i] = nil
		}
		q.free = q.free[:limit]
	}
}

// recycleAll moves every still-queued event into the free list, emptying the
// queue. Unlike release it skips the shrink rule: it runs between executions
// on a warm arena, where the point is to keep the pool sized for the next
// run's burst rather than for the (now empty) live queue. The list stays
// bounded because every in-run release re-applies the 2×live+floor rule.
func (q *eventQueue) recycleAll() {
	for i, ev := range q.items {
		ev.obj = nil
		ev.p = Payload{}
		q.free = append(q.free, ev)
		q.items[i] = nil
	}
	q.items = q.items[:0]
}

func (q *eventQueue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
}

//amac:hotpath
func (q *eventQueue) push(e *event) {
	q.items = append(q.items, e)
	q.up(len(q.items) - 1)
}

//amac:hotpath
func (q *eventQueue) pop() *event {
	n := len(q.items)
	if n == 0 {
		return nil
	}
	top := q.items[0]
	q.swap(0, n-1)
	q.items[n-1] = nil
	q.items = q.items[:n-1]
	if len(q.items) > 0 {
		q.down(0)
	}
	return top
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
