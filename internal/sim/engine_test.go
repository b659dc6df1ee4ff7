package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// funcDispatcher is the test-only dispatcher that runs closures: every
// event's object operand is a func(), posted through at/after below. A func
// value boxes into the operand without allocating, so the allocation tests
// can drive the engine with closures and still measure the pooled path.
type funcDispatcher struct{}

func (funcDispatcher) Dispatch(_ EventKind, op Op) { op.Obj.(func())() }

// kindFunc is the event kind at/after post; funcDispatcher ignores it.
const kindFunc EventKind = 1

// newFuncEngine returns an engine whose events are plain closures.
func newFuncEngine(seed int64) *Engine {
	e := NewEngine(seed)
	e.SetDispatcher(funcDispatcher{})
	return e
}

// at posts fn to run at absolute time t.
func at(e *Engine, t Time, fn func()) { e.Post(t, kindFunc, fn, 0, 0) }

// after posts fn to run d ticks from now.
func after(e *Engine, d Duration, fn func()) { at(e, e.Now()+d, fn) }

func TestEngineOrdering(t *testing.T) {
	e := newFuncEngine(1)
	var got []int
	at(e, 10, func() { got = append(got, 2) })
	at(e, 5, func() { got = append(got, 1) })
	at(e, 10, func() { got = append(got, 3) }) // same time: insertion order
	at(e, 20, func() { got = append(got, 4) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := newFuncEngine(1)
	var fired []Time
	at(e, 1, func() {
		fired = append(fired, e.Now())
		after(e, 3, func() { fired = append(fired, e.Now()) })
		after(e, 1, func() { fired = append(fired, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{1, 2, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := newFuncEngine(1)
	at(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		at(e, 5, func() {})
	})
	_ = e.Run()
}

func TestEngineHalt(t *testing.T) {
	e := newFuncEngine(1)
	var count int
	for i := 1; i <= 10; i++ {
		at(e, Time(i), func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	if err := e.Run(); err != ErrHalted {
		t.Fatalf("Run err = %v, want ErrHalted", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEngineHorizon(t *testing.T) {
	e := newFuncEngine(1)
	var fired []Time
	for i := 1; i <= 10; i++ {
		tt := Time(i * 10)
		at(e, tt, func() { fired = append(fired, tt) })
	}
	e.SetHorizon(50)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 5 || fired[len(fired)-1] != 50 {
		t.Fatalf("fired = %v, want events through t=50", fired)
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := newFuncEngine(1)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		after(e, 1, reschedule)
	}
	at(e, 0, reschedule)
	e.SetStepLimit(100)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	run := func(seed int64) []int64 {
		e := newFuncEngine(seed)
		rng := e.Fork(0)
		var draws []int64
		var tick func()
		n := 0
		tick = func() {
			draws = append(draws, rng.Int63n(1000))
			n++
			if n < 50 {
				after(e, Duration(1+rng.Int63n(5)), tick)
			}
		}
		at(e, 0, tick)
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("len %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %d != %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical executions")
	}
}

func TestForkIndependence(t *testing.T) {
	e := NewEngine(7)
	r1, r2 := e.Fork(1), e.Fork(2)
	r1b := e.Fork(1)
	a, b := r1.Int63(), r2.Int63()
	if a == b {
		t.Fatal("forked streams with different ids produced equal first draw")
	}
	if got := r1b.Int63(); got != a {
		t.Fatalf("fork with same id not reproducible: %d vs %d", got, a)
	}
}

// Property: the event queue pops events in non-decreasing (time, push
// index) order for arbitrary insertion sequences (times need not be pushed
// in order). The a operand carries the push index.
func TestQueueHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		q := newEventQueue()
		for i, tt := range times {
			q.push(&event{at: Time(tt), a: int64(i)})
		}
		prevAt, prevSeq := Time(-1), int64(0)
		for q.Len() > 0 {
			ev := q.pop()
			if ev.at < prevAt {
				return false
			}
			if ev.at == prevAt && ev.a < prevSeq {
				return false
			}
			prevAt, prevSeq = ev.at, ev.a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved push/pop maintains heap order.
func TestQueueInterleavedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := newEventQueue()
	lastPopped := Time(-1)
	for i := 0; i < 10000; i++ {
		if q.Len() == 0 || rng.Intn(2) == 0 {
			// Push at a time not before the last popped event (causality).
			at := lastPopped + Time(rng.Intn(100))
			if at < 0 {
				at = 0
			}
			q.push(&event{at: at})
		} else {
			ev := q.pop()
			if ev.at < lastPopped {
				t.Fatalf("popped %v after %v", ev.at, lastPopped)
			}
			lastPopped = ev.at
		}
	}
}

// Property: pushes at the time being drained, interleaved with pops, come
// out in exact (at, seq) order, seq being the push index (carried in the a
// operand). Every push is at or after the last popped time and takes the
// next seq, so it sorts after everything already popped and the whole pop
// sequence must equal the sorted push sequence. Far-off pushes keep dozens
// of times pending, churning the time index.
func TestQueueDrainInterleavedOrder(t *testing.T) {
	type key struct {
		at  Time
		seq int64
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		q := newEventQueue()
		var pushed, popped []key
		now := Time(0)
		for i := 0; i < 20000; i++ {
			if q.Len() > 0 && rng.Intn(2) == 0 {
				ev := q.pop()
				now = ev.at
				popped = append(popped, key{ev.at, ev.a})
				continue
			}
			at := now
			switch r := rng.Intn(10); {
			case r < 5: // the time being drained
			case r < 9:
				at += Time(rng.Intn(4))
			default:
				at += Time(rng.Intn(500))
			}
			k := key{at, int64(len(pushed))}
			pushed = append(pushed, k)
			q.push(&event{at: k.at, a: k.seq})
		}
		for q.Len() > 0 {
			ev := q.pop()
			popped = append(popped, key{ev.at, ev.a})
		}
		if q.pop() != nil {
			t.Fatal("pop on an empty queue returned an event")
		}
		sort.Slice(pushed, func(i, j int) bool {
			if pushed[i].at != pushed[j].at {
				return pushed[i].at < pushed[j].at
			}
			return pushed[i].seq < pushed[j].seq
		})
		if len(popped) != len(pushed) {
			t.Fatalf("seed %d: popped %d events, pushed %d", seed, len(popped), len(pushed))
		}
		for i := range pushed {
			if popped[i] != pushed[i] {
				t.Fatalf("seed %d: pop %d = %+v, want %+v", seed, i, popped[i], pushed[i])
			}
		}
	}
}

func TestTraceFilter(t *testing.T) {
	var tr Trace
	tr.Append(TraceEvent{Kind: "a", Node: 1})
	tr.Append(TraceEvent{Kind: "b", Node: 2})
	tr.Append(TraceEvent{Kind: "a", Node: 3})
	got := tr.Filter("a")
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 3 {
		t.Fatalf("Filter = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	if Infinity.String() != "inf" {
		t.Fatalf("Infinity.String() = %q", Infinity.String())
	}
	if Time(42).String() != "t42" {
		t.Fatalf("Time(42).String() = %q", Time(42).String())
	}
}
