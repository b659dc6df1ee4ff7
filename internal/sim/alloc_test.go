package sim

import "testing"

// TestScheduleStepAllocationFree pins down the event pool: once the queue
// and free list are warm, scheduling and executing events must not allocate
// at all. A regression here means the hot path went back to one heap event
// per Post.
func TestScheduleStepAllocationFree(t *testing.T) {
	e := newFuncEngine(1)
	var tick func()
	n := 0
	tick = func() {
		if n < 100 {
			n++
			after(e, 1, tick)
		}
	}
	// Warm the pool and the heap's backing array.
	at(e, e.Now(), tick)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		at(e, e.Now(), tick)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+run allocates %.1f times per 100-event burst, want 0", allocs)
	}
}

// countingDispatcher re-posts a chain of typed events, mimicking a
// scheduler's steady state: every dispatched event schedules the next.
type countingDispatcher struct {
	e *Engine
	n int
}

func (d *countingDispatcher) Dispatch(kind EventKind, op Op) {
	if kind != EventKind(1) {
		panic("unexpected kind")
	}
	if d.n < 100 {
		d.n++
		d.e.Post(d.e.Now()+1, 1, op.Obj, op.A+1, op.B)
	}
}

// TestTypedPostStepAllocationFree pins the typed steady-state path: posting
// and dispatching typed events — the path every shipped scheduler runs on —
// must not allocate at all once the pool is warm. Unlike posting a fresh
// closure per event, this holds even when each event carries a fresh payload
// (kind + operands are plain fields; the obj pointer boxes for free).
func TestTypedPostStepAllocationFree(t *testing.T) {
	e := NewEngine(1)
	d := &countingDispatcher{e: e}
	e.SetDispatcher(d)
	payload := &struct{ x int }{42}
	run := func() {
		d.n = 0
		e.Post(e.Now(), 1, payload, 0, 0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool and the heap's backing array
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("steady-state typed post+dispatch allocates %.1f times per 100-event burst, want 0", allocs)
	}
}

// TestEventPoolBounded pins the free-list cap: a delivery burst must not pin
// its peak event count for the rest of the run. After draining a large
// burst, the pool must have shrunk back to the 2×live+floor bound instead
// of retaining all burst events.
func TestEventPoolBounded(t *testing.T) {
	e := newFuncEngine(1)
	const burst = 10_000
	for i := 0; i < burst; i++ {
		at(e, Time(i%97), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, limit := len(e.queue.free), 2*len(e.queue.items)+freeFloor; got > limit {
		t.Fatalf("after a %d-event burst the free list holds %d events, bound is %d", burst, got, limit)
	}
	// The bound tracks the live queue: with events in flight the pool may
	// keep proportionally more.
	for i := 0; i < 50; i++ {
		at(e, e.Now()+Time(i+1), func() {})
	}
	if got, limit := len(e.queue.free), 2*e.queue.Len()+freeFloor; got > limit {
		t.Fatalf("free list %d exceeds bound %d with %d live events", got, limit, e.queue.Len())
	}
}
