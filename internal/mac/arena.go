package mac

import (
	"fmt"

	"amac/internal/sim"
	"amac/internal/topology"
)

// spanMask returns the bits of reliability word w that fall inside the
// global arc range [lo, hi) — one sender's row — so a row is scanned a word
// at a time: set bits are its G-neighbors, clear bits its G′\G neighbors.
func spanMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := w << 6; base < lo {
		m <<= uint(lo - base)
	}
	if end := w<<6 + 64; end > hi {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// Arena owns the reusable run state for repeated executions on one pinned
// dual network: its delivery index, a single flat backing block that all
// instance delivery rows are carved from, the pooled broadcast-instance
// records, the per-node engine state and the simulation engine itself
// (whose event pool stays warm across runs). Passing an Arena
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
	eng  *Engine

	// The delivery index aliases the dual, read-only and shared by every
	// instance: off and arcs are G′'s flat CSR adjacency (graph.CSR), so a
	// sender's delivery row and its slot numbering are literally the
	// graph's row, and reliable is the dual's reliability words, one bit
	// per arc position (topology.Dual.ReliableArcs). Binding re-aliases
	// them and derives nothing.
	off      []int32
	arcs     []NodeID
	reliable []uint64

	// block is the flat CSR delivery storage: every instance's deliveredAt
	// row is block[used:used+deg]. Reset zeroes the used prefix instead of
	// reallocating, so warm runs write into recycled memory.
	block []sim.Time
	used  int
	// grey is the flat storage instances carve their grey-slot buffers
	// from (Instance.GreySlots), greyUsed its cursor. Buffers are written
	// before they are read, so reset rewinds the cursor without zeroing.
	grey     []int32
	greyUsed int

	// insts pools the instance records of past runs (pointers are stable;
	// the structs are recycled). Records are allocated in slabs of up to
	// maxSlab, so a cold run allocates for them once per slab rather than
	// once per broadcast. next is the reuse cursor of the current run.
	insts []*Instance
	next  int
}

// NewArena builds the reusable run state for the given dual network, which
// must have been made by topology.NewDual: the arena aliases its
// reliability bits. It panics on a dual that was not, with the error
// NewEngine reports.
func NewArena(d *topology.Dual) *Arena {
	a := &Arena{}
	a.bind(d)
	return a
}

// bind points the arena's delivery index at d.
func (a *Arena) bind(d *topology.Dual) {
	if d == nil {
		panic("mac: nil dual")
	}
	if err := d.Validate(); err != nil {
		panic(fmt.Sprintf("mac: invalid dual: %v", err))
	}
	a.dual = d
	a.off, a.arcs = d.GPrime.CSR()
	a.reliable = d.ReliableArcs()
}

// Dual returns the network the arena was built for.
func (a *Arena) Dual() *topology.Dual { return a.dual }

// isReliable reports whether global arc position i of G′ is a G edge.
func (a *Arena) isReliable(i int32) bool {
	return a.reliable[i>>6]&(1<<(uint(i)&63)) != 0
}

// Rebind re-targets the arena at a new dual network, recycling its warm
// storage: the delivery index re-aliases the new dual's CSR and
// reliability bits, the flat delivery block is kept whenever the new
// degree sum fits its capacity and grown geometrically otherwise, and the
// pooled engine, instance records and event pool all carry over. Unpinned
// trial sweeps rebind one arena per worker to each per-trial network draw
// instead of building a fresh arena. Like NewArena, it panics on a dual
// NewDual did not make. Rebinding to the arena's current dual is a no-op.
func (a *Arena) Rebind(d *topology.Dual) {
	if d == a.dual {
		return
	}
	a.bind(d)
	if len(a.arcs) > len(a.block) {
		// Same growth policy as row() below — double with an arc-space
		// floor; keep the two in sync. Growing here (rather than leaving it
		// to row's lazy path) keeps used and the block consistent across
		// the network switch.
		a.block = make([]sim.Time, max(2*len(a.block), len(a.arcs)))
		a.used = 0
	}
}

// Cap returns the capacity of the flat delivery block in slots (tests use
// it to pin Rebind's geometric-growth policy).
func (a *Arena) Cap() int { return len(a.block) }

// reset recycles the storage of the previous execution: the delivery block
// is zeroed up to its high-water mark (rows are handed out pre-zeroed, like
// a fresh make), and the grey and instance cursors rewind.
func (a *Arena) reset() {
	clear(a.block[:a.used])
	a.used = 0
	a.greyUsed = 0
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
		a.block = make([]sim.Time, max(2*len(a.block), len(a.arcs), need)) //lint:hotalloc doubling grow: amortized O(1) and absent entirely in warm trials, where the block is sized from the first run
	}
	r := a.block[a.used : a.used+deg : a.used+deg]
	a.used += deg
	return r
}

// greyRow carves n entries of grey-slot storage, empty with capacity n.
// Growth follows row: double, with a floor of one full grey-arc space, no
// copy — earlier buffers keep aliasing the old block for the rest of the
// run.
//
//amac:hotpath
func (a *Arena) greyRow(n int) []int32 {
	if need := a.greyUsed + n; need > len(a.grey) {
		a.grey = make([]int32, max(2*len(a.grey), len(a.arcs)-2*a.dual.G.M(), need)) //lint:hotalloc doubling grow: amortized O(1) and absent in warm trials, where the block is sized from the first run
	}
	r := a.grey[a.greyUsed : a.greyUsed : a.greyUsed+n]
	a.greyUsed += n
	return r
}

// instance returns a broadcast-instance record backed by arena storage: the
// delivery row comes from the flat block, the struct from the pool, and the
// neighbor row plus its base offset come straight off the graph's shared
// arc array, so slot s of the row is global arc base+s — the reliable batch
// and grey draws walk its reliability words by slot, and Deliver finds a
// node's slot with one binary search.
// The grey buffer is left unset: GreySlots carves it on first use, so a
// recycled record never keeps a buffer aliasing an earlier run's block.
//
//amac:hotpath
func (a *Arena) instance(id InstanceID, sender NodeID, payload Payload, start sim.Time) *Instance {
	base := a.off[sender]
	row := a.arcs[base:a.off[sender+1]:a.off[sender+1]]
	if a.next == len(a.insts) {
		a.grow()
	}
	b := a.insts[a.next]
	a.next++
	*b = Instance{
		ID:                id,
		Sender:            sender,
		Payload:           payload,
		Start:             start,
		nbrs:              row,
		deliveredAt:       a.row(len(row)),
		arena:             a,
		base:              base,
		remainingReliable: a.dual.G.Degree(sender),
	}
	return b
}

// maxSlab caps an instance slab at about 1 MB of records, so a pool that
// outgrows its last slab reserves at most that much it may never use.
const maxSlab = 4096

// grow extends the instance pool by one slab as large as the pool so far,
// between 64 and maxSlab records: small pools double, large ones grow by a
// fixed step.
func (a *Arena) grow() {
	slab := make([]Instance, min(max(len(a.insts), 64), maxSlab))
	for i := range slab {
		a.insts = append(a.insts, &slab[i])
	}
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
