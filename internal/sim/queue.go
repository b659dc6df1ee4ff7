package sim

// event is a scheduled callback in virtual time. Events with equal times fire
// in insertion order, which makes executions fully deterministic.
//
// An event is typed: a kind plus its operand set, executed by the engine's
// Dispatcher. Scheduling therefore allocates no closures at all.
//
// Events are pooled: push takes a struct from a free list and pop hands its
// fields back by value and returns it to the list, so steady-state
// scheduling performs no heap allocation, and no *event ever leaves this
// file.
type event struct {
	at   Time
	next *event // next event of the same time, in insertion order
	op   Op
	kind EventKind
}

// bucket is the FIFO of all queued events at one time, linked through
// event.next. Buckets are pooled like events.
type bucket struct {
	at         Time
	head, tail *event
}

// freeFloor is the minimum free-list length the shrink rule never cuts
// below, so small engines keep a warm pool across bursts. A new queue starts
// with that many spare buckets.
const freeFloor = 64

// eventQueue orders events by time, ties in push order, as a calendar of
// time buckets (after Brown's calendar queue): a min-heap over the distinct
// pending times, each owning the FIFO of its events, so pops come out in
// exact (time, push order) with no sequence numbers to compare. A run has
// few distinct pending times at once — one per outstanding delay class, at
// most Fack+1 under the random scheduler — so the heap stays tiny however
// many events are queued, and most pushes land in the bucket of the
// previous push.
type eventQueue struct {
	times []*bucket        // min-heap on at, one bucket per distinct pending time
	index map[Time]*bucket // the bucket of every pending time
	last  *bucket          // bucket of the last push
	n     int              // queued events
	free  []*event         // recycled events ready for reuse
	spare []*bucket        // recycled buckets ready for reuse
}

// newEventQueue returns an empty queue sized for freeFloor distinct pending
// times: its heap, time index and a first block of spare buckets are made
// here, once per engine, so a cold run opens its first freeFloor times
// without allocating, and all of it survives Reset.
func newEventQueue() eventQueue {
	q := eventQueue{
		times: make([]*bucket, 0, freeFloor),
		index: make(map[Time]*bucket, freeFloor),
		spare: make([]*bucket, freeFloor),
	}
	block := make([]bucket, freeFloor)
	for i := range q.spare {
		q.spare[i] = &block[i]
	}
	return q
}

// Len reports the number of events still queued.
func (q *eventQueue) Len() int { return q.n }

// recycleAll moves every still-queued event into the free list, emptying the
// queue. Unlike pop it skips the shrink rule: it runs between executions
// on a warm arena, where the point is to keep the pool sized for the next
// run's burst rather than for the (now empty) live queue. The list stays
// bounded because every in-run pop re-applies the 2×live+floor rule.
func (q *eventQueue) recycleAll() {
	for i, b := range q.times {
		for ev := b.head; ev != nil; {
			next := ev.next
			ev.next, ev.op.Obj = nil, nil
			q.free = append(q.free, ev)
			ev = next
		}
		q.dropBucket(b)
		q.times[i] = nil
	}
	q.times = q.times[:0]
	clear(q.index)
	q.n = 0
}

// push queues an event at time at, appending it to the bucket of its time
// and opening the bucket when the time is not yet pending. The struct comes
// from the free list when it has one; push writes every field, so nothing of
// its last tenancy survives.
//
//amac:hotpath
func (q *eventQueue) push(at Time, kind EventKind, op Op) {
	var e *event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &event{}
	}
	*e = event{at: at, op: op, kind: kind}
	q.n++
	b := q.last
	if b == nil || b.at != at {
		if b = q.index[at]; b == nil {
			b = q.openBucket(at)
			b.head = e
			b.tail = e
			q.last = b
			return
		}
		q.last = b
	}
	b.tail.next = e
	b.tail = e
}

// pop removes the earliest event and returns its time, kind and operands by
// value; ok is false when the queue is empty. The struct goes back to the
// free list with its object operand dropped, so the pool pins no object.
// The list is bounded: a delivery burst must not pin its peak event count
// for the rest of the run, so whenever it exceeds twice the live queue
// (plus a small floor), the excess structs are dropped for the collector.
//
//amac:hotpath
func (q *eventQueue) pop() (at Time, kind EventKind, op Op, ok bool) {
	if len(q.times) == 0 {
		return 0, 0, Op{}, false
	}
	b := q.times[0]
	ev := b.head
	b.head = ev.next
	q.n--
	if b.head == nil {
		q.closeBucket(b)
	}
	at, kind, op = ev.at, ev.kind, ev.op
	ev.next, ev.op.Obj = nil, nil
	q.free = append(q.free, ev)
	if limit := 2*q.n + freeFloor; len(q.free) > limit {
		for i := limit; i < len(q.free); i++ {
			q.free[i] = nil
		}
		q.free = q.free[:limit]
	}
	return at, kind, op, true
}

// openBucket makes a bucket for the not-yet-pending time at and enters it
// into the heap and the index.
//
//amac:hotpath
func (q *eventQueue) openBucket(at Time) *bucket {
	var b *bucket
	if n := len(q.spare); n > 0 {
		b = q.spare[n-1]
		q.spare[n-1] = nil
		q.spare = q.spare[:n-1]
	} else {
		b = new(bucket) //lint:hotalloc pool miss: only a run holding more than freeFloor distinct pending times at once gets here
	}
	b.at = at
	q.index[at] = b
	q.times = append(q.times, b)
	q.up(len(q.times) - 1)
	return b
}

// closeBucket retires the emptied minimum bucket b from the heap and the
// index.
//
//amac:hotpath
func (q *eventQueue) closeBucket(b *bucket) {
	n := len(q.times) - 1
	q.times[0] = q.times[n]
	q.times[n] = nil
	q.times = q.times[:n]
	if n > 0 {
		q.down(0)
	}
	delete(q.index, b.at)
	q.dropBucket(b)
}

// dropBucket returns an emptied bucket to the spare list, under the same
// 2×live+floor bound as the event pool.
func (q *eventQueue) dropBucket(b *bucket) {
	if q.last == b {
		q.last = nil
	}
	b.head, b.tail = nil, nil
	if len(q.spare) < 2*q.n+freeFloor {
		q.spare = append(q.spare, b)
	}
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.times[parent].at <= q.times[i].at {
			return
		}
		q.times[i], q.times[parent] = q.times[parent], q.times[i]
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.times)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.times[left].at < q.times[smallest].at {
			smallest = left
		}
		if right < n && q.times[right].at < q.times[smallest].at {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.times[i], q.times[smallest] = q.times[smallest], q.times[i]
		i = smallest
	}
}
