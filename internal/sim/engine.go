package sim

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrHalted is returned by Run when the simulation is stopped early via Halt.
var ErrHalted = errors.New("sim: halted")

// EventKind tags a typed event payload. Kinds are owned by the engine's
// Dispatcher, which defines the vocabulary (the abstract MAC engine
// registers one dispatcher covering deliveries, acks, wakeups and scheduler
// timers).
type EventKind uint8

// Op is the operand set of a typed event: one object handle (always a
// pointer in practice, so boxing it into the interface allocates nothing),
// two small scalars whose meaning the kind defines — a receiver id, a
// slot boundary, a delay class — and one typed message payload for events
// that carry algorithm data (environment arrivals), which travels unboxed.
type Op struct {
	Obj  any
	A, B int64
	P    Payload
}

// Dispatcher executes typed events. The engine calls Dispatch once per
// popped typed event with the event's kind and operands; implementations
// switch on the kind. A single dispatcher serves the whole engine.
type Dispatcher interface {
	Dispatch(kind EventKind, op Op)
}

// Engine is a single-threaded discrete-event simulator. Events posted with
// Post/PostPayload are dispatched in non-decreasing virtual-time order; ties
// fire in scheduling order. The Engine is not safe for concurrent use: the
// intended pattern is that all state lives inside the dispatcher, exactly
// like a timed automaton execution.
type Engine struct {
	now      Time
	queue    eventQueue
	seed     int64
	halted   bool
	stepped  uint64
	limit    uint64 // safety valve: max events processed, 0 = unlimited
	horizon  Time   // events strictly after the horizon are not executed
	dispatch Dispatcher
}

// NewEngine returns an engine whose derived random streams (Fork, Reseed)
// are keyed by seed. Identical seeds and identical scheduling sequences
// yield identical executions.
func NewEngine(seed int64) *Engine {
	return &Engine{
		queue:   newEventQueue(),
		seed:    seed,
		horizon: Infinity,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// forkSeed mixes (seed, id) into the derived stream seed Fork and Reseed
// share (SplitMix-style).
func (e *Engine) forkSeed(id int64) int64 {
	z := uint64(e.seed) ^ (uint64(id)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Fork derives an independent deterministic random stream, keyed by id, from
// the engine seed. Algorithms and schedulers draw all randomness from such
// streams, so executions replay exactly; per-node streams keep them
// reproducible even when the set or order of nodes' random draws changes.
func (e *Engine) Fork(id int64) *rand.Rand {
	return rand.New(rand.NewSource(e.forkSeed(id)))
}

// Reseed re-seeds r in place with the same derived stream Fork(id) would
// return: math/rand's Seed restores the generator to exactly the
// freshly-constructed state, so a pooled stream object reseeded this way is
// indistinguishable from a new Fork. Warm engines reuse their per-node and
// scheduler streams across runs through this instead of reallocating the
// ~5KB generator state per trial.
func (e *Engine) Reseed(r *rand.Rand, id int64) {
	r.Seed(e.forkSeed(id))
}

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.stepped }

// SetStepLimit bounds the number of events Run will execute; 0 means
// unlimited. It is a safety valve for tests of potentially divergent
// protocols.
func (e *Engine) SetStepLimit(n uint64) { e.limit = n }

// SetHorizon stops Run once the next event is strictly after t. Events at
// exactly t still run.
func (e *Engine) SetHorizon(t Time) { e.horizon = t }

// SetDispatcher installs the typed-event dispatcher. It must be set before
// the first Post and not changed afterwards (the MAC engine installs itself
// at construction time).
func (e *Engine) SetDispatcher(d Dispatcher) { e.dispatch = d }

// Post schedules a typed event at absolute time t: kind selects the
// dispatcher's handler, (obj, a, b) are its operands. Events are pooled
// plain-data structs, so posting allocates nothing in steady state.
// Scheduling in the past panics: it would violate causality and always
// indicates a bug in a scheduler. Posting without a dispatcher installed
// panics at dispatch time.
//
//amac:hotpath
func (e *Engine) Post(t Time, kind EventKind, obj any, a, b int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.queue.push(t, kind, Op{Obj: obj, A: a, B: b})
}

// PostPayload schedules a typed event like Post, carrying a typed message
// payload in place of the object operand. The payload travels unboxed
// through the pooled event struct, so posting algorithm data (environment
// arrivals) allocates nothing.
//
//amac:hotpath
func (e *Engine) PostPayload(t Time, kind EventKind, p Payload, a, b int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.queue.push(t, kind, Op{A: a, B: b, P: p})
}

// Reset restores the engine to its initial state with a new seed, keeping
// the event pool warm: still-queued events (a halted run leaves them behind)
// are recycled into the free list, so the next execution schedules against
// pre-allocated structs. The dispatcher is kept. Arenas use this to make
// repeated executions on a pinned topology allocation-free.
func (e *Engine) Reset(seed int64) {
	e.queue.recycleAll()
	e.now = 0
	e.stepped = 0
	e.halted = false
	e.limit = 0
	e.horizon = Infinity
	e.seed = seed
}

// Halt stops the run loop after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// Step executes the next event, advancing virtual time. It returns false
// when no events remain or the horizon/limit is reached.
//
//amac:hotpath
func (e *Engine) Step() bool {
	if e.halted {
		return false
	}
	if e.limit != 0 && e.stepped >= e.limit {
		return false
	}
	at, kind, op, ok := e.queue.pop()
	if !ok {
		return false
	}
	if at > e.horizon {
		// Leave the horizon-crossing event consumed; the run is over.
		return false
	}
	if at < e.now {
		panic("sim: time went backwards")
	}
	e.now = at
	e.stepped++
	e.dispatch.Dispatch(kind, op)
	return true
}

// Run executes events until the queue drains, Halt is called, or the
// step limit / horizon is hit. It returns ErrHalted iff stopped via Halt.
func (e *Engine) Run() error {
	for e.Step() {
	}
	if e.halted {
		return ErrHalted
	}
	return nil
}
