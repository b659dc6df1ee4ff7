// Package rt is a real-time runtime for abstract MAC layer algorithms: the
// same node automata that run on the deterministic simulator (package mac)
// run here unchanged as one goroutine per node over wall-clock time, with
// message passing over channels — the deployment story the paper's model is
// designed for (algorithms written against the abstract MAC layer keep
// their guarantees over any conforming MAC).
//
// The runtime implements a benign conforming scheduler: reliable neighbors
// receive a broadcast after RecvDelay, selected unreliable neighbors after
// the same delay, and the acknowledgment fires after AckDelay, with
// RecvDelay < Fprog and AckDelay < Fack leaving margin for goroutine
// scheduling jitter. Acknowledgment correctness is enforced by
// construction: the ack path force-completes any reliable delivery whose
// timer lagged. Every instance is recorded in the simulator's own record
// format (times in nanoseconds), so package check validates real
// executions against the model guarantees exactly as it validates
// simulated ones.
//
// Limitations relative to package mac: standard model only (no timers or
// aborts — BMMB needs neither), and the timing bounds are best-effort
// under OS scheduling.
package rt

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// Config parameterizes a real-time run.
type Config struct {
	// Dual is the network. Required.
	Dual *topology.Dual
	// Fprog and Fack are the declared model bounds (wall-clock).
	// Defaults: 50ms and 500ms.
	Fprog, Fack time.Duration
	// RecvDelay is the actual bcast→rcv latency; must be in (0, Fprog).
	// Default Fprog/5.
	RecvDelay time.Duration
	// AckDelay is the actual bcast→ack latency; must be in
	// [RecvDelay, Fack). Default Fack/5.
	AckDelay time.Duration
	// GreyP is the delivery probability on unreliable links; 0 means no
	// grey-zone traffic.
	GreyP float64
	// Seed drives the per-node random streams.
	Seed int64
	// InboxSize bounds each node's event queue. Default 4096. Senders
	// block (with stop-awareness) when an inbox is full.
	InboxSize int
}

func (c Config) withDefaults() Config {
	if c.Fprog == 0 {
		c.Fprog = 50 * time.Millisecond
	}
	if c.Fack == 0 {
		c.Fack = 500 * time.Millisecond
	}
	if c.RecvDelay == 0 {
		c.RecvDelay = c.Fprog / 5
	}
	if c.AckDelay == 0 {
		c.AckDelay = c.Fack / 5
	}
	if c.InboxSize == 0 {
		c.InboxSize = 4096
	}
	if c.RecvDelay <= 0 || c.RecvDelay >= c.Fprog {
		panic("rt: RecvDelay must be in (0, Fprog)")
	}
	if c.AckDelay < c.RecvDelay || c.AckDelay >= c.Fack {
		panic("rt: AckDelay must be in [RecvDelay, Fack)")
	}
	return c
}

// event is one item in a node's inbox, processed on the node's goroutine.
type event struct {
	kind byte // 'w' wakeup, 'a' arrive, 'r' recv, 'k' ack
	arg  mac.Payload
	msg  mac.Message
	inst mac.InstanceID // the instance a recv or ack belongs to
}

// Engine runs automata over real time. Create with New, start with Start,
// inject with Arrive, stop with Stop (idempotent), then inspect Instances.
type Engine struct {
	cfg   Config
	nodes []*rtNode

	mu     sync.Mutex
	insts  []*mac.Instance
	nextID mac.InstanceID
	start  time.Time
	timers []*time.Timer

	watchMu  sync.Mutex
	watchers []func(node mac.NodeID, kind string, arg any)

	nodeWG  sync.WaitGroup
	cbWG    sync.WaitGroup
	stopped chan struct{}
	stopOne sync.Once
}

type rtNode struct {
	eng       *Engine
	id        mac.NodeID
	automaton mac.Automaton
	inbox     chan event
	rng       *rand.Rand

	// pending is written only on the node's own goroutine (Bcast and the
	// 'k' event handler), so automaton code sees a consistent view.
	pending *mac.Instance
}

var _ mac.Context = (*rtNode)(nil)

// New builds a real-time engine over the dual with one automaton per node.
func New(cfg Config, automata []mac.Automaton) *Engine {
	cfg = cfg.withDefaults()
	if err := cfg.Dual.Validate(); err != nil {
		panic(fmt.Sprintf("rt: %v", err))
	}
	if len(automata) != cfg.Dual.N() {
		panic(fmt.Sprintf("rt: %d automata for %d nodes", len(automata), cfg.Dual.N()))
	}
	e := &Engine{cfg: cfg, stopped: make(chan struct{})}
	e.nodes = make([]*rtNode, cfg.Dual.N())
	for i := range e.nodes {
		e.nodes[i] = &rtNode{
			eng:       e,
			id:        mac.NodeID(i),
			automaton: automata[i],
			inbox:     make(chan event, cfg.InboxSize),
			rng:       rand.New(rand.NewSource(cfg.Seed ^ (int64(i)+1)*-0x61c8864680b583eb)),
		}
	}
	return e
}

// Watch registers a callback for engine events (Emit calls plus the
// built-in arrive/bcast/rcv/ack kinds). Callbacks run on node goroutines
// and must be thread-safe.
func (e *Engine) Watch(fn func(node mac.NodeID, kind string, arg any)) {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	e.watchers = append(e.watchers, fn)
}

func (e *Engine) notify(node mac.NodeID, kind string, arg any) {
	e.watchMu.Lock()
	ws := make([]func(node mac.NodeID, kind string, arg any), len(e.watchers))
	copy(ws, e.watchers)
	e.watchMu.Unlock()
	for _, w := range ws {
		w(node, kind, arg)
	}
}

// Start launches the node goroutines and fires wake-ups.
func (e *Engine) Start() {
	e.mu.Lock()
	e.start = time.Now()
	e.mu.Unlock()
	for _, n := range e.nodes {
		n := n
		e.nodeWG.Add(1)
		go func() {
			defer e.nodeWG.Done()
			n.loop()
		}()
		n.send(event{kind: 'w'})
	}
}

// now returns elapsed wall-clock time in nanosecond ticks.
func (e *Engine) now() sim.Time {
	e.mu.Lock()
	s := e.start
	e.mu.Unlock()
	return sim.Time(time.Since(s))
}

// Arrive injects an environment message at node v, immediately.
func (e *Engine) Arrive(v mac.NodeID, payload mac.Payload) {
	e.nodes[v].send(event{kind: 'a', arg: payload})
}

// Stop cancels outstanding timers, waits for in-flight timer callbacks,
// and terminates all node goroutines. Safe to call multiple times.
func (e *Engine) Stop() {
	e.stopOne.Do(func() {
		close(e.stopped)
		e.mu.Lock()
		timers := e.timers
		e.timers = nil
		e.mu.Unlock()
		for _, t := range timers {
			if t.Stop() {
				e.cbWG.Done() // callback will never run
			}
		}
		e.cbWG.Wait() // let already-started callbacks finish
		e.nodeWG.Wait()
	})
}

// Instances returns the recorded broadcast instances. Call after Stop for
// a quiescent view.
func (e *Engine) Instances() []*mac.Instance {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*mac.Instance(nil), e.insts...)
}

// Quiescent reports, under the engine lock, the instance count and whether
// every recorded instance has terminated. Monitors use it to detect that a
// run has drained without racing on instance fields.
func (e *Engine) Quiescent() (count int, settled bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, b := range e.insts {
		if b.Term == mac.Active {
			return len(e.insts), false
		}
	}
	return len(e.insts), true
}

// Elapsed returns the wall-clock run length so far in sim ticks (ns).
func (e *Engine) Elapsed() sim.Time { return e.now() }

// after schedules fn once the delay elapses, unless the engine stops
// first. The callback is tracked so Stop can wait for it. The stopped
// check and the WaitGroup Add happen under the engine lock, which Stop
// also holds after closing stopped — otherwise a node goroutine
// broadcasting during shutdown races its Add against Stop's Wait.
func (e *Engine) after(d time.Duration, fn func()) {
	e.mu.Lock()
	select {
	case <-e.stopped:
		e.mu.Unlock()
		return
	default:
	}
	e.cbWG.Add(1)
	t := time.AfterFunc(d, func() {
		defer e.cbWG.Done()
		select {
		case <-e.stopped:
			return
		default:
		}
		fn()
	})
	e.timers = append(e.timers, t)
	e.mu.Unlock()
}

// --- node goroutine ---

// send enqueues an event, blocking on a full inbox unless the engine is
// stopping. Only timer goroutines and the environment call send, so
// backpressure cannot deadlock node goroutines.
func (n *rtNode) send(ev event) {
	select {
	case n.inbox <- ev:
	case <-n.eng.stopped:
	}
}

func (n *rtNode) loop() {
	for {
		select {
		case <-n.eng.stopped:
			return
		case ev := <-n.inbox:
			n.handle(ev)
		}
	}
}

func (n *rtNode) handle(ev event) {
	switch ev.kind {
	case 'w':
		n.automaton.Wakeup(n)
	case 'a':
		ar, ok := n.automaton.(mac.Arriver)
		if !ok {
			panic(fmt.Sprintf("rt: node %d cannot accept arrive events", n.id))
		}
		n.eng.notify(n.id, "arrive", ev.arg.Value())
		ar.Arrive(n, ev.arg)
	case 'r':
		n.eng.notify(n.id, "rcv", ev.inst)
		n.automaton.Recv(n, ev.msg)
	case 'k':
		if n.pending != nil && n.pending.ID == ev.inst {
			n.pending = nil
		}
		n.eng.notify(n.id, "ack", ev.inst)
		n.automaton.Acked(n, ev.msg)
	}
}

// --- mac.Context implementation (runs on the node goroutine) ---

// ID returns the node's identifier.
func (n *rtNode) ID() mac.NodeID { return n.id }

// N returns the network size.
func (n *rtNode) N() int { return n.eng.cfg.Dual.N() }

// Pending reports whether a broadcast awaits its acknowledgment.
func (n *rtNode) Pending() bool { return n.pending != nil }

// GNeighbors returns the node's reliable neighbors.
func (n *rtNode) GNeighbors() []mac.NodeID { return n.eng.cfg.Dual.G.Neighbors(n.id) }

// GPrimeNeighbors returns the node's G′ neighbors.
func (n *rtNode) GPrimeNeighbors() []mac.NodeID { return n.eng.cfg.Dual.GPrime.Neighbors(n.id) }

// Rand returns the node's private random stream. Use only from the node's
// own callbacks.
func (n *rtNode) Rand() *rand.Rand { return n.rng }

// Emit publishes an algorithm-level event to watchers, which see the boxed
// payload value (watchers are an any-typed observer interface).
func (n *rtNode) Emit(kind string, arg mac.Payload) { n.eng.notify(n.id, kind, arg.Value()) }

// Bcast initiates an acknowledged local broadcast over the real-time MAC.
func (n *rtNode) Bcast(payload mac.Payload) {
	if n.pending != nil {
		panic(fmt.Sprintf("rt: node %d bcast while pending (user well-formedness)", n.id))
	}
	e := n.eng
	e.mu.Lock()
	b := mac.NewInstance(e.nextID, n.id, payload, sim.Time(time.Since(e.start)),
		e.cfg.Dual.GPrime.Neighbors(n.id), e.cfg.Dual.G.Degree(n.id))
	e.nextID++
	e.insts = append(e.insts, b)
	e.mu.Unlock()
	n.pending = b
	e.notify(n.id, "bcast", b.ID)

	msg := mac.Message{Sender: n.id, Payload: payload}
	targets := append([]mac.NodeID(nil), e.cfg.Dual.G.Neighbors(n.id)...)
	if e.cfg.GreyP > 0 {
		for _, j := range e.cfg.Dual.GPrime.Neighbors(n.id) {
			if e.cfg.Dual.G.HasEdge(n.id, j) {
				continue
			}
			// Drawn on the sender's goroutine: stream access stays
			// single-threaded.
			if n.rng.Float64() < e.cfg.GreyP {
				targets = append(targets, j)
			}
		}
	}
	for _, j := range targets {
		j := j
		e.after(e.cfg.RecvDelay, func() { e.deliver(b, msg, j) })
	}
	e.after(e.cfg.AckDelay, func() { e.ack(n, b, msg) })
}

// deliver records and dispatches one rcv, exactly once per (instance,
// receiver) and never after termination. The rcv's message carries the
// link's G-edge bit, as the simulator's does.
func (e *Engine) deliver(b *mac.Instance, msg mac.Message, j mac.NodeID) {
	e.mu.Lock()
	if b.WasDelivered(j) || b.Term != mac.Active {
		e.mu.Unlock()
		return
	}
	msg.Reliable = e.cfg.Dual.G.HasEdge(b.Sender, j)
	b.MarkDelivered(j, e.nowLocked(), msg.Reliable)
	e.mu.Unlock()
	e.nodes[j].send(event{kind: 'r', msg: msg, inst: b.ID})
}

// ack terminates the instance, force-completing any reliable delivery
// whose timer lagged so acknowledgment correctness holds by construction.
func (e *Engine) ack(n *rtNode, b *mac.Instance, msg mac.Message) {
	var missing []mac.NodeID
	e.mu.Lock()
	if b.Term != mac.Active {
		e.mu.Unlock()
		return
	}
	for _, j := range e.cfg.Dual.G.Neighbors(b.Sender) {
		if !b.WasDelivered(j) {
			b.MarkDelivered(j, e.nowLocked(), true)
			missing = append(missing, j)
		}
	}
	b.Term = mac.Acked
	b.TermAt = e.nowLocked()
	e.mu.Unlock()
	rcv := msg
	rcv.Reliable = true // every forced delivery is to a G-neighbor
	for _, j := range missing {
		e.nodes[j].send(event{kind: 'r', msg: rcv, inst: b.ID})
	}
	n.send(event{kind: 'k', msg: msg, inst: b.ID})
}

// nowLocked is now() for callers already holding e.mu.
func (e *Engine) nowLocked() sim.Time { return sim.Time(time.Since(e.start)) }
