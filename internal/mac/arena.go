package mac

import (
	"fmt"

	"amac/internal/sim"
	"amac/internal/topology"
)

// csrIndex is the per-topology delivery index an Arena derives from the
// dual once and shares, read-only, with every instance of every execution
// on that topology. It no longer stores positions at all: off and arcs
// alias G′'s own flat CSR adjacency (graph.Graph stores one arc array for
// the whole graph), so a sender's delivery row and its slot numbering are
// literally the graph's — the only derived state is one reliability bit
// per directed arc (is the arc also a G edge), packed into a bitset
// indexed by global arc position. Rebind refreshes the aliases and
// recomputes the bitset with one merge walk of the G and G′ rows, O(m+m′),
// instead of refilling a 2m′-entry hash map — at million-node scale the
// map alone was hundreds of megabytes.
type csrIndex struct {
	// off/arcs alias G′'s CSR storage (graph.CSR); row u is
	// arcs[off[u]:off[u+1]], sorted. Invalidated if the graph mutates —
	// the arena rebinds before any such graph is run again.
	off  []int32
	arcs []NodeID
	// reliable bit i is set when directed arc i (global position in arcs)
	// is also a G edge.
	reliable []uint64
	// arcCount is the total directed-arc count 2m′ — the delivery block's
	// growth floor (one row per node's first broadcast is exactly one
	// full arc space).
	arcCount int
}

func newCSRIndex(d *topology.Dual) *csrIndex {
	idx := &csrIndex{}
	idx.fill(d)
	return idx
}

// fill derives the index from d into existing storage: the adjacency
// aliases are reassigned and the reliability bitset is rebuilt in place
// (reallocated only when the arc count grew), so rebinding to a network of
// similar size allocates nothing.
func (idx *csrIndex) fill(d *topology.Dual) {
	gOff, gArcs := d.G.CSR()
	pOff, pArcs := d.GPrime.CSR()
	idx.off, idx.arcs = pOff, pArcs
	idx.arcCount = len(pArcs)
	words := (len(pArcs) + 63) / 64
	if cap(idx.reliable) < words {
		idx.reliable = make([]uint64, words)
	} else {
		idx.reliable = idx.reliable[:words]
		clear(idx.reliable)
	}
	for u := 0; u < d.N(); u++ {
		gi, ge := int(gOff[u]), int(gOff[u+1])
		pi, pe := int(pOff[u]), int(pOff[u+1])
		for gi < ge && pi < pe {
			switch {
			case gArcs[gi] == pArcs[pi]:
				idx.reliable[pi>>6] |= 1 << (uint(pi) & 63)
				gi++
				pi++
			case gArcs[gi] < pArcs[pi]:
				gi++ // G arc missing from G′: Validate rejects such duals
			default:
				pi++
			}
		}
	}
}

// isReliable reports whether global arc position i is a G edge.
func (idx *csrIndex) isReliable(i int32) bool {
	return idx.reliable[i>>6]&(1<<(uint(i)&63)) != 0
}

// Arena owns the reusable run state for repeated executions on one pinned
// dual network: the precomputed CSR position index, a single flat backing
// block that all instance delivery rows are carved from, the pooled
// broadcast-instance records, the per-node engine state and the simulation
// engine itself (whose event pool stays warm across runs). Passing an Arena
// through Config makes the second and later engines on the same topology
// allocation-free to construct and run trials against warm storage.
//
// An Arena serves one execution at a time: acquiring a new engine (via
// NewEngine with Config.Arena set) recycles everything the previous
// execution allocated, including the engine exposed through its results. It
// is not safe for concurrent use — parallel trial pools hold one Arena per
// worker.
type Arena struct {
	dual *topology.Dual
	csr  *csrIndex
	eng  *Engine

	// block is the flat CSR delivery storage: every instance's deliveredAt
	// row is block[used:used+deg]. Reset zeroes the used prefix instead of
	// reallocating, so warm runs write into recycled memory.
	block []sim.Time
	used  int

	// insts pools the instance records of past runs (pointers are stable;
	// the structs are recycled field-by-field, keeping their receivers
	// capacity). next is the reuse cursor of the current run.
	insts []*Instance
	next  int
}

// NewArena builds the reusable run state for the given dual network. It
// panics on an invalid dual.
func NewArena(d *topology.Dual) *Arena {
	if d == nil {
		panic("mac: nil dual")
	}
	if err := d.Validate(); err != nil {
		panic(fmt.Sprintf("mac: invalid dual: %v", err))
	}
	return &Arena{dual: d, csr: newCSRIndex(d)}
}

// Dual returns the network the arena was built for.
func (a *Arena) Dual() *topology.Dual { return a.dual }

// Rebind re-targets the arena at a new dual network, recycling its warm
// storage: the reliability bitset is refilled in place, the flat delivery
// block is kept whenever the new degree sum fits its capacity and grown
// geometrically otherwise, and the pooled engine, instance records and
// event pool all carry over. Unpinned trial sweeps rebind one arena per
// worker to each per-trial network draw instead of building a fresh arena.
// Like NewArena, it panics on an invalid dual. Rebinding to the arena's
// current dual is a no-op.
func (a *Arena) Rebind(d *topology.Dual) {
	if d == a.dual {
		return
	}
	if d == nil {
		panic("mac: nil dual")
	}
	if err := d.Validate(); err != nil {
		panic(fmt.Sprintf("mac: invalid dual: %v", err))
	}
	a.csr.fill(d)
	if a.csr.arcCount > len(a.block) {
		// Same growth policy as row() below — double with an arc-space
		// floor; keep the two in sync. Growing here (rather than leaving it
		// to row's lazy path) keeps used and the block consistent across
		// the network switch.
		newLen := 2 * len(a.block)
		if newLen < a.csr.arcCount {
			newLen = a.csr.arcCount
		}
		a.block = make([]sim.Time, newLen)
		a.used = 0
	}
	a.dual = d
}

// Cap returns the capacity of the flat delivery block in slots (tests use
// it to pin Rebind's geometric-growth policy).
func (a *Arena) Cap() int { return len(a.block) }

// reset recycles the storage of the previous execution: the delivery block
// is zeroed up to its high-water mark (rows are handed out pre-zeroed, like
// a fresh make) and the instance cursor rewinds.
func (a *Arena) reset() {
	clear(a.block[:a.used])
	a.used = 0
	a.next = 0
}

// row carves the next deg slots out of the flat delivery block. Growth
// doubles (with a floor of one full arc space — the exact demand of a
// single flood where every node broadcasts once), so steady state performs
// no allocation. The old contents are not copied: previously handed-out
// rows keep aliasing their original backing for the rest of the run, and
// the fresh block arrives pre-zeroed.
//
//amac:hotpath
func (a *Arena) row(deg int) []sim.Time {
	if need := a.used + deg; need > len(a.block) {
		newLen := 2 * len(a.block)
		if newLen < a.csr.arcCount {
			newLen = a.csr.arcCount
		}
		if newLen < need {
			newLen = need
		}
		a.block = make([]sim.Time, newLen) //lint:hotalloc doubling grow: amortized O(1) and absent entirely in warm trials, where the block is sized from the first run
	}
	r := a.block[a.used : a.used+deg : a.used+deg]
	a.used += deg
	return r
}

// instance returns a broadcast-instance record backed by arena storage: the
// delivery row comes from the flat block, the struct from the pool, and the
// neighbor row plus its base offset come straight off the graph's shared
// arc array, giving Deliver its slot and reliability bit with one binary
// search over the row.
//
//amac:hotpath
func (a *Arena) instance(id InstanceID, sender NodeID, payload Payload, start sim.Time) *Instance {
	base := a.csr.off[sender]
	row := a.csr.arcs[base:a.csr.off[sender+1]:a.csr.off[sender+1]]
	fresh := Instance{
		ID:                id,
		Sender:            sender,
		Payload:           payload,
		Start:             start,
		nbrs:              row,
		deliveredAt:       a.row(len(row)),
		csr:               a.csr,
		base:              base,
		remainingReliable: a.dual.G.Degree(sender),
	}
	if a.next < len(a.insts) {
		b := a.insts[a.next]
		a.next++
		fresh.receivers = b.receivers[:0]
		fresh.greybuf = b.greybuf[:0]
		*b = fresh
		return b
	}
	// new + copy rather than &fresh: taking fresh's address would force it
	// to the heap on every call, including the pooled path above.
	b := new(Instance) //lint:hotalloc pool miss: only the first run of a fleet reaches this; warm trials always hit the pooled path above
	*b = fresh
	a.insts = append(a.insts, b)
	a.next++
	return b
}

// engineFor returns the arena's engine configured for cfg: built once on
// first use, then recycled — simulation clock and event pool reset, node
// states and instance storage rewound — so warm acquisition allocates
// nothing. The caller (NewEngine) has already validated cfg.
func (a *Arena) engineFor(cfg Config, automata []Automaton) *Engine {
	a.reset()
	e := a.eng
	if e == nil {
		e = &Engine{
			cfg:   cfg,
			sim:   sim.NewEngine(cfg.Seed),
			arena: a,
			nodes: make([]nodeState, cfg.Dual.N()),
		}
		e.sim.SetDispatcher(e)
		a.eng = e
	} else {
		e.cfg = cfg
		e.sim.Reset(cfg.Seed)
		e.insts = e.insts[:0]
		e.nextID = 0
		// Bumping the epoch marks every pooled random stream (scheduler and
		// per-node) stale: the next draw re-seeds it in place from the new
		// engine seed, so streams carry over with zero allocation and zero
		// cost when a trial never draws.
		e.rngEpoch++
		e.watchers = e.watchers[:0]
		// A rebound arena may carry a different node count; reuse the node
		// slice's capacity where it covers the new network.
		if n := cfg.Dual.N(); cap(e.nodes) >= n {
			e.nodes = e.nodes[:n]
		} else {
			e.nodes = make([]nodeState, n)
		}
	}
	e.timerSched, _ = cfg.Scheduler.(TimerScheduler)
	e.mem, _ = cfg.Trace.(*sim.Trace)
	for i := range e.nodes {
		ns := &e.nodes[i]
		// rng and rngSeen persist across acquisitions (the epoch bump above
		// forces a lazy re-seed); everything else is rebuilt.
		ns.eng = e
		ns.id = NodeID(i)
		ns.automaton = automata[i]
		ns.pending = nil
	}
	cfg.Scheduler.Attach(e)
	return e
}
