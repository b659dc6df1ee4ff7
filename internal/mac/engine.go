package mac

import (
	"fmt"
	"math/rand"

	"amac/internal/sim"
	"amac/internal/topology"
)

// Config parameterizes an Engine.
type Config struct {
	// Dual is the network (G, G′). Required.
	Dual *topology.Dual
	// Fack is the acknowledgment bound in ticks. Must be ≥ Fprog.
	Fack sim.Time
	// Fprog is the progress bound in ticks. Must be ≥ 2 (schedulers need
	// at least one tick of slack inside a progress window).
	Fprog sim.Time
	// Scheduler supplies the model's non-determinism. Required.
	Scheduler Scheduler
	// Mode selects Standard or Enhanced. Defaults to Standard.
	Mode Mode
	// Seed drives all randomness (engine, per-node streams, scheduler).
	Seed int64
	// EpsAbort bounds how long after an abort a rcv caused by the aborted
	// instance may still occur (the paper's ε_abort). Defaults to 0.
	EpsAbort sim.Time
	// Trace receives every trace event in execution order: a *sim.Trace
	// records in memory (what checkers replay), a sim.TraceWriter streams
	// to disk. Nil records nothing; watchers still observe every event, and
	// when none are registered either the engine skips event construction
	// altogether — the throughput fast path.
	Trace sim.TraceSink
	// Arena, when set, must have been built for Dual (pointer identity)
	// and makes construction reuse the arena's warm storage: pooled engine
	// and node states, flat CSR delivery rows, recycled instance records
	// and a warm event pool. Acquiring an engine recycles the previous
	// execution's state, including the engine reachable through earlier
	// results. Nil acquires the engine from a private arena built for this
	// call alone: executions are byte-identical either way, since the
	// arena only changes where the memory comes from.
	Arena *Arena
}

// Scheduler is the source of the model's non-determinism: it decides when
// each G-neighbor receives a broadcast, whether and when each G′\G
// neighbor receives it, and when the acknowledgment fires — subject to the
// model guarantees, which the engine enforces at delivery time and package
// check re-verifies from the recorded instances.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Attach binds the scheduler to an engine before the run starts.
	Attach(api API)
	// OnBcast is invoked at the instant a node initiates a broadcast.
	OnBcast(b *Instance)
	// OnAbort is invoked when a sender aborts an instance (enhanced mode).
	OnAbort(b *Instance)
}

// API is the engine surface exposed to schedulers.
//
// The Schedule* family posts typed, pooled events on the simulation queue,
// so scheduling allocates no closures.
type API interface {
	// Now returns current virtual time.
	Now() sim.Time
	// Fack returns the acknowledgment bound.
	Fack() sim.Time
	// Fprog returns the progress bound.
	Fprog() sim.Time
	// Dual returns the network.
	Dual() *topology.Dual
	// Rand returns the scheduler's deterministic random stream.
	Rand() *rand.Rand
	// ScheduleDeliver posts a guarded delivery of b to a single receiver at
	// time t: it fires only if b is still active and to has not received.
	ScheduleDeliver(t sim.Time, b *Instance, to NodeID)
	// ScheduleReliableDeliveries posts one batched event at time t that
	// delivers b to every G-neighbor of its sender in neighbor order,
	// stopping if the instance terminates mid-batch.
	ScheduleReliableDeliveries(t sim.Time, b *Instance)
	// ScheduleGreyDeliveries posts one batched event at time t delivering b
	// to targets in order (same mid-batch termination guard). The slice is
	// retained by the instance until the batch fires; at most one grey
	// batch may be pending per instance.
	ScheduleGreyDeliveries(t sim.Time, b *Instance, targets []NodeID)
	// ScheduleAck posts the acknowledgment of b at time t, skipped if the
	// instance has terminated by then.
	ScheduleAck(t sim.Time, b *Instance)
	// ScheduleTimer posts a typed callback at time t that is routed to the
	// scheduler's OnTimer method with the given operands. The scheduler
	// must implement TimerScheduler; the first ScheduleTimer call panics
	// otherwise.
	ScheduleTimer(t sim.Time, obj any, a, b int64)
	// Deliver performs a rcv event for instance b at node to, now.
	// It enforces receive correctness and panics on violations (a
	// scheduler bug, not a model behavior).
	Deliver(b *Instance, to NodeID)
	// Ack performs the ack event for instance b, now. It enforces
	// acknowledgment correctness (all G-neighbors already received) and
	// the acknowledgment bound.
	Ack(b *Instance)
}

// TimerScheduler is implemented by schedulers that use API.ScheduleTimer:
// OnTimer receives the posted operands when the timer fires.
type TimerScheduler interface {
	OnTimer(obj any, a, b int64)
}

// Engine composes a dual network, one automaton per node, and a scheduler
// into an executable abstract MAC layer system.
type Engine struct {
	cfg        Config
	sim        *sim.Engine
	arena      *Arena // the arena the engine was acquired from
	nodes      []nodeState
	insts      []*Instance
	nextID     InstanceID
	schedRand  *rand.Rand
	watchers   []func(sim.TraceEvent)
	timerSched TimerScheduler // cfg.Scheduler, when it implements OnTimer
	// mem is cfg.Trace when it is an in-memory *sim.Trace, resolved once
	// per acquisition so the per-event append stays a direct, inlined call
	// instead of an interface dispatch.
	mem *sim.Trace
	// rngEpoch counts engine acquisitions on a warm arena. Pooled random
	// streams (schedRand, per-node rng) record the epoch they were last
	// seeded in and lazily re-seed on mismatch, so streams survive across
	// trials without allocating and without eager re-seeding cost when a
	// trial never draws.
	rngEpoch      uint32
	schedRandSeen uint32 // epoch schedRand was last (re-)seeded in
}

// Typed event kinds the MAC engine registers on the simulation queue.
// Everything the shipped schedulers and the engine itself schedule in steady
// state is one of these — plain pooled structs, no closures.
const (
	// evWakeup fires Automaton.Wakeup at node A.
	evWakeup sim.EventKind = iota + 1
	// evArrive delivers the environment input Obj to node A.
	evArrive
	// evDeliverOne delivers instance Obj to node A if still active and
	// undelivered there.
	evDeliverOne
	// evDeliverReliable delivers instance Obj to every G-neighbor of its
	// sender, in neighbor order, stopping on termination.
	evDeliverReliable
	// evDeliverGrey delivers instance Obj to its drawn grey targets, in
	// draw order, stopping on termination.
	evDeliverGrey
	// evAck acknowledges instance Obj if still active.
	evAck
	// evTimer fires TimerHandler.Timer at node A.
	evTimer
	// evSchedTimer routes (Obj, A, B) to the scheduler's OnTimer.
	evSchedTimer
)

type nodeState struct {
	eng       *Engine
	id        NodeID
	automaton Automaton
	pending   *Instance
	rng       *rand.Rand
	rngSeen   uint32 // epoch rng was last (re-)seeded in
}

var _ EnhancedContext = (*nodeState)(nil)

// NewEngine validates cfg, instantiates per-node state with the given
// automata (one per node of the dual, in node order) and returns the ready
// engine, acquired from cfg.Arena or from a private arena when that is nil.
// It panics on configuration errors: these are programming mistakes, not
// runtime conditions.
func NewEngine(cfg Config, automata []Automaton) *Engine {
	if cfg.Dual == nil {
		panic("mac: nil dual")
	}
	if cfg.Arena != nil && cfg.Arena.dual != cfg.Dual {
		// The arena's CSR index is derived from its own dual; running a
		// different network against it would silently corrupt deliveries.
		panic("mac: Config.Arena was built for a different dual")
	}
	if cfg.Scheduler == nil {
		panic("mac: nil scheduler")
	}
	if cfg.Fprog < 2 {
		panic("mac: Fprog must be >= 2 ticks")
	}
	if cfg.Fack < cfg.Fprog {
		panic("mac: Fack must be >= Fprog")
	}
	if cfg.Mode == 0 {
		cfg.Mode = Standard
	}
	if len(automata) != cfg.Dual.N() {
		panic(fmt.Sprintf("mac: %d automata for %d nodes", len(automata), cfg.Dual.N()))
	}
	if cfg.Arena == nil {
		// NewArena validates the dual, which an arena-backed config
		// skips: the arena validated it when it was built or rebound.
		cfg.Arena = NewArena(cfg.Dual)
	}
	return cfg.Arena.engineFor(cfg, automata)
}

// Sim exposes the underlying simulation engine (tests and runners use it
// for horizons and step limits).
func (e *Engine) Sim() *sim.Engine { return e.sim }

// Mode returns the configured model variant.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Instances returns every broadcast instance recorded so far, in creation
// order. The slice and records are owned by the engine.
func (e *Engine) Instances() []*Instance { return e.insts }

// Watch registers fn to observe every trace event as it is appended.
func (e *Engine) Watch(fn func(sim.TraceEvent)) {
	e.watchers = append(e.watchers, fn)
}

// recording reports whether anyone observes trace events. When false, emit
// call sites skip event construction (and the interface boxing of the
// argument) entirely — the no-trace fast path.
func (e *Engine) recording() bool {
	return e.cfg.Trace != nil || len(e.watchers) > 0
}

//amac:hotpath
func (e *Engine) emit(kind string, node NodeID, arg Payload) {
	if !e.recording() {
		return
	}
	ev := sim.TraceEvent{At: e.sim.Now(), Kind: kind, Node: int(node), P: arg}
	if e.mem != nil {
		e.mem.Append(ev)
	} else if e.cfg.Trace != nil {
		e.cfg.Trace.Append(ev)
	}
	for _, w := range e.watchers {
		w(ev)
	}
}

// Start schedules the wake-up event for every node at time zero. It must be
// called exactly once, before Run.
func (e *Engine) Start() {
	for i := range e.nodes {
		e.sim.Post(0, evWakeup, nil, int64(i), 0)
	}
}

// StartNodes schedules the wake-up event at time zero for the given nodes
// only, in slice order. Engine shards that own a subset of the network use
// it in place of Start; the two must not be mixed in one run.
func (e *Engine) StartNodes(ids []NodeID) {
	for _, v := range ids {
		e.sim.Post(0, evWakeup, nil, int64(v), 0)
	}
}

// Arrive schedules an environment input (the MMB arrive event) for node v
// at time t. The automaton must implement Arriver.
func (e *Engine) Arrive(v NodeID, payload Payload, t sim.Time) {
	ns := e.node(v)
	if _, ok := ns.automaton.(Arriver); !ok {
		panic(fmt.Sprintf("mac: node %d automaton does not accept arrive events", v))
	}
	e.sim.PostPayload(t, evArrive, payload, int64(v), 0)
}

// Dispatch implements sim.Dispatcher: the typed-event switch at the bottom
// of the run loop.
//
//amac:hotpath
func (e *Engine) Dispatch(kind sim.EventKind, op sim.Op) {
	switch kind {
	case evWakeup:
		ns := &e.nodes[op.A]
		ns.automaton.Wakeup(ns)
	case evArrive:
		ns := &e.nodes[op.A]
		e.emit("arrive", ns.id, op.P)
		ns.automaton.(Arriver).Arrive(ns, op.P)
	case evDeliverOne:
		b := op.Obj.(*Instance)
		if to := NodeID(op.A); b.Term == Active && !b.WasDelivered(to) {
			e.Deliver(b, to)
		}
	case evDeliverReliable:
		b := op.Obj.(*Instance)
		for _, j := range e.cfg.Dual.G.Neighbors(b.Sender) {
			if b.Term != Active {
				return
			}
			e.Deliver(b, j)
		}
	case evDeliverGrey:
		b := op.Obj.(*Instance)
		grey := b.grey
		b.grey = nil
		for _, j := range grey {
			if b.Term != Active {
				return
			}
			e.Deliver(b, j)
		}
	case evAck:
		b := op.Obj.(*Instance)
		if b.Term == Active {
			e.Ack(b)
		}
	case evTimer:
		ns := &e.nodes[op.A]
		ns.automaton.(TimerHandler).Timer(ns)
	case evSchedTimer:
		e.timerSched.OnTimer(op.Obj, op.A, op.B)
	default:
		panic(fmt.Sprintf("mac: dispatch of unknown event kind %d", kind))
	}
}

// Run executes the system until the event queue drains, the horizon is
// reached, or Halt is called.
func (e *Engine) Run() { _ = e.sim.Run() }

// Halt stops the run after the current event.
func (e *Engine) Halt() { e.sim.Halt() }

func (e *Engine) node(v NodeID) *nodeState {
	if int(v) < 0 || int(v) >= len(e.nodes) {
		panic(fmt.Sprintf("mac: node %d out of range", v))
	}
	return &e.nodes[v]
}

// --- API (scheduler surface) ---

// Now returns the current virtual time.
func (e *Engine) Now() sim.Time { return e.sim.Now() }

// Fack returns the acknowledgment bound.
func (e *Engine) Fack() sim.Time { return e.cfg.Fack }

// Fprog returns the progress bound.
func (e *Engine) Fprog() sim.Time { return e.cfg.Fprog }

// Dual returns the network.
func (e *Engine) Dual() *topology.Dual { return e.cfg.Dual }

// Rand returns the scheduler's random stream (forked on first use; on a
// warm arena, re-seeded in place on first use after each acquisition).
func (e *Engine) Rand() *rand.Rand {
	if e.schedRand == nil {
		e.schedRand = e.sim.Fork(-1)
	} else if e.schedRandSeen != e.rngEpoch {
		e.sim.Reseed(e.schedRand, -1)
	}
	e.schedRandSeen = e.rngEpoch
	return e.schedRand
}

// ScheduleDeliver posts a guarded single delivery (see API).
//
//amac:hotpath
func (e *Engine) ScheduleDeliver(t sim.Time, b *Instance, to NodeID) {
	e.sim.Post(t, evDeliverOne, b, int64(to), 0)
}

// ScheduleReliableDeliveries posts the batched reliable delivery (see API).
//
//amac:hotpath
func (e *Engine) ScheduleReliableDeliveries(t sim.Time, b *Instance) {
	e.sim.Post(t, evDeliverReliable, b, 0, 0)
}

// ScheduleGreyDeliveries posts the batched grey delivery (see API). The
// targets slice is parked on the instance until the batch fires, and is
// retained afterwards as the instance's grey scratch buffer (GreyBuf), so
// recycled instances redraw into warm storage.
//
//amac:hotpath
func (e *Engine) ScheduleGreyDeliveries(t sim.Time, b *Instance, targets []NodeID) {
	if b.grey != nil {
		panic(fmt.Sprintf("mac: instance %d already has a grey batch pending", b.ID))
	}
	b.grey = targets
	b.greybuf = targets
	e.sim.Post(t, evDeliverGrey, b, 0, 0)
}

// ScheduleAck posts the guarded acknowledgment (see API).
//
//amac:hotpath
func (e *Engine) ScheduleAck(t sim.Time, b *Instance) {
	e.sim.Post(t, evAck, b, 0, 0)
}

// ScheduleTimer posts a typed scheduler timer (see API). The configured
// scheduler must implement TimerScheduler.
func (e *Engine) ScheduleTimer(t sim.Time, obj any, a, b int64) {
	if e.timerSched == nil {
		panic(fmt.Sprintf("mac: scheduler %s uses ScheduleTimer but does not implement TimerScheduler",
			e.cfg.Scheduler.Name()))
	}
	e.sim.Post(t, evSchedTimer, obj, a, b)
}

// Deliver performs the rcv event for b at node to. The engine enforces
// receive correctness (Section 3.2.1): the receiver must be a G′ neighbor
// of the sender, must not have received this instance already, the
// instance must not be acked, and deliveries after an abort must fall
// within EpsAbort.
//
//amac:hotpath
func (e *Engine) Deliver(b *Instance, to NodeID) {
	if to == b.Sender {
		panic(fmt.Sprintf("mac: delivery of instance %d to its own sender", b.ID))
	}
	// The instance's row IS the graph's CSR row, so one binary search over
	// it yields the G′ membership check, the delivery slot and (via the
	// global arc position base+slot) the reliability bit.
	slot := b.slot(to)
	if slot < 0 {
		panic(fmt.Sprintf("mac: delivery %d→%d without a G' edge", b.Sender, to))
	}
	if b.deliveredAt[slot] != 0 {
		panic(fmt.Sprintf("mac: duplicate delivery of instance %d to %d", b.ID, to))
	}
	now := e.sim.Now()
	switch b.Term {
	case Acked:
		panic(fmt.Sprintf("mac: delivery of instance %d after its ack", b.ID))
	case Aborted:
		if now > b.TermAt+e.cfg.EpsAbort {
			panic(fmt.Sprintf("mac: delivery of instance %d %v after abort (eps=%v)",
				b.ID, now-b.TermAt, e.cfg.EpsAbort))
		}
	}
	b.deliveredAt[slot] = now + 1
	b.receivers = append(b.receivers, to)
	if b.csr.isReliable(b.base + int32(slot)) {
		b.remainingReliable--
	}
	if e.recording() {
		e.emit("rcv", to, Int(int64(b.ID)))
	}
	ns := e.node(to)
	ns.automaton.Recv(ns, Message{Instance: b.ID, Sender: b.Sender, Payload: b.Payload})
}

// Ack performs the acknowledgment for b. The engine enforces
// acknowledgment correctness (every G-neighbor of the sender has received
// b) and the acknowledgment bound (now ≤ start + Fack).
//
//amac:hotpath
func (e *Engine) Ack(b *Instance) {
	if b.Term != Active {
		panic(fmt.Sprintf("mac: double termination of instance %d", b.ID))
	}
	now := e.sim.Now()
	if now > b.Start+e.cfg.Fack {
		panic(fmt.Sprintf("mac: ack of instance %d at %v violates Fack bound (start %v, Fack %v)",
			b.ID, now, b.Start, e.cfg.Fack))
	}
	if !b.AllReliableDelivered() {
		for _, v := range e.cfg.Dual.G.Neighbors(b.Sender) {
			if !b.WasDelivered(v) {
				panic(fmt.Sprintf("mac: ack of instance %d before G-neighbor %d received", b.ID, v))
			}
		}
	}
	b.Term = Acked
	b.TermAt = now
	ns := e.node(b.Sender)
	if ns.pending != b {
		panic(fmt.Sprintf("mac: ack for instance %d which is not pending at %d", b.ID, b.Sender))
	}
	ns.pending = nil
	if e.recording() {
		e.emit("ack", b.Sender, Int(int64(b.ID)))
	}
	ns.automaton.Acked(ns, Message{Instance: b.ID, Sender: b.Sender, Payload: b.Payload})
}

// --- nodeState: the Context / EnhancedContext implementation ---

// ID returns the node's identifier.
func (ns *nodeState) ID() NodeID { return ns.id }

// N returns the network size.
func (ns *nodeState) N() int { return ns.eng.cfg.Dual.N() }

// Bcast initiates an acknowledged local broadcast of payload.
func (ns *nodeState) Bcast(payload Payload) {
	if ns.pending != nil {
		panic(fmt.Sprintf("mac: node %d bcast while instance %d pending (user well-formedness)",
			ns.id, ns.pending.ID))
	}
	e := ns.eng
	b := e.arena.instance(e.nextID, ns.id, payload, e.sim.Now())
	e.nextID++
	e.insts = append(e.insts, b)
	ns.pending = b
	if e.recording() {
		e.emit("bcast", ns.id, Int(int64(b.ID)))
	}
	e.cfg.Scheduler.OnBcast(b)
}

// Pending reports whether a broadcast awaits termination.
func (ns *nodeState) Pending() bool { return ns.pending != nil }

// GNeighbors returns the node's reliable neighbors.
func (ns *nodeState) GNeighbors() []NodeID {
	return ns.eng.cfg.Dual.G.Neighbors(ns.id)
}

// GPrimeNeighbors returns the node's G′ neighbors.
func (ns *nodeState) GPrimeNeighbors() []NodeID {
	return ns.eng.cfg.Dual.GPrime.Neighbors(ns.id)
}

// Rand returns the node's private random stream (forked on first use; on a
// warm arena, re-seeded in place on first use after each acquisition).
func (ns *nodeState) Rand() *rand.Rand {
	if ns.rng == nil {
		ns.rng = ns.eng.sim.Fork(int64(ns.id))
	} else if ns.rngSeen != ns.eng.rngEpoch {
		ns.eng.sim.Reseed(ns.rng, int64(ns.id))
	}
	ns.rngSeen = ns.eng.rngEpoch
	return ns.rng
}

// Emit appends an algorithm-level trace event attributed to this node.
func (ns *nodeState) Emit(kind string, arg Payload) { ns.eng.emit(kind, ns.id, arg) }

func (ns *nodeState) requireEnhanced(op string) {
	if ns.eng.cfg.Mode != Enhanced {
		panic(fmt.Sprintf("mac: %s requires the enhanced abstract MAC layer", op))
	}
}

// Now returns the current time (enhanced mode only).
func (ns *nodeState) Now() sim.Time {
	ns.requireEnhanced("Now")
	return ns.eng.sim.Now()
}

// Fack returns the acknowledgment bound (enhanced mode only).
func (ns *nodeState) Fack() sim.Time {
	ns.requireEnhanced("Fack")
	return ns.eng.cfg.Fack
}

// Fprog returns the progress bound (enhanced mode only).
func (ns *nodeState) Fprog() sim.Time {
	ns.requireEnhanced("Fprog")
	return ns.eng.cfg.Fprog
}

// SetTimer schedules a Timer callback (enhanced mode only).
func (ns *nodeState) SetTimer(d sim.Duration) {
	ns.requireEnhanced("SetTimer")
	if _, ok := ns.automaton.(TimerHandler); !ok {
		panic(fmt.Sprintf("mac: node %d sets a timer but does not implement TimerHandler", ns.id))
	}
	e := ns.eng
	e.sim.Post(e.sim.Now()+d, evTimer, nil, int64(ns.id), 0)
}

// Abort aborts the pending broadcast (enhanced mode only); no-op if none.
func (ns *nodeState) Abort() {
	ns.requireEnhanced("Abort")
	b := ns.pending
	if b == nil {
		return
	}
	b.Term = Aborted
	b.TermAt = ns.eng.sim.Now()
	ns.pending = nil
	ns.eng.emit("abort", ns.id, Int(int64(b.ID)))
	ns.eng.cfg.Scheduler.OnAbort(b)
}
