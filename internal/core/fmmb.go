package core

import (
	"math"
	"math/bits"
	"slices"

	"amac/internal/mac"
)

// Gather/spread payload types (Sections 4.3, 4.4). Each carries at most one
// MMB message.

// pollPayload is round 1 of a gather period: an active MIS node announcing
// itself.
type pollPayload struct {
	From mac.NodeID
}

// gatherMsgPayload is round 2 of a gather period: a non-MIS node handing a
// message it still owns to a polling MIS neighbor.
type gatherMsgPayload struct {
	M    Msg
	From mac.NodeID
}

// gatherAckPayload is round 3 of a gather period: an MIS node confirming it
// now owns M.
type gatherAckPayload struct {
	M    Msg
	From mac.NodeID
}

// spreadPayload carries one message through the overlay local-broadcast
// procedure: an active MIS node's broadcast in round 1, or a relay in
// rounds 2/3 of a spread period.
type spreadPayload struct {
	M    Msg
	From mac.NodeID
}

// FMMBConfig parameterizes FMMB (Section 4). Nodes know the network size
// n, the grey-zone constant c, a diameter bound D and the message count k:
// the paper's fixed-length subroutine schedules are stated in terms of
// these quantities, so the simulated nodes receive them as inputs (see
// DESIGN.md; the harness never leaks runtime state to nodes).
type FMMBConfig struct {
	// N is the network size.
	N int
	// K is the number of MMB messages.
	K int
	// D is an upper bound on the diameter of G.
	D int
	// C is the grey zone constant (c ≥ 1).
	C float64
	// MIS configures the first stage; its N and C are overwritten from
	// this config.
	MIS MISConfig
	// GatherPeriods is the number of 3-round gather periods; 0 selects
	// 2·⌈2c²⌉·(k + ⌈log n⌉).
	GatherPeriods int
	// ActiveProb is the MIS-node activation probability in gather and
	// spread periods; 0 selects 1/(2c²) capped at 1/4.
	ActiveProb float64
	// SpreadPeriods is the number of 3-round periods in one run of the
	// overlay local-broadcast procedure; 0 selects ⌈2c²⌉·⌈log n⌉.
	SpreadPeriods int
	// SpreadPhases is the number of local-broadcast phases; 0 selects
	// D + k + 4 + ⌈log n⌉ (the overlay diameter D_H is at most D).
	SpreadPhases int
}

// withDefaults resolves zero fields.
func (c FMMBConfig) withDefaults() FMMBConfig {
	if c.N < 1 {
		panic("core: FMMBConfig.N must be >= 1")
	}
	if c.C < 1 {
		c.C = 1
	}
	if c.K < 1 {
		c.K = 1
	}
	if c.D < 1 {
		c.D = 1
	}
	c.MIS.N = c.N
	c.MIS.C = c.C
	c.MIS = c.MIS.withDefaults()
	ln := Log2Ceil(c.N)
	if ln < 1 {
		ln = 1
	}
	c2i := int(math.Ceil(2 * c.C * c.C))
	if c.GatherPeriods == 0 {
		c.GatherPeriods = 2 * c2i * (c.K + ln)
	}
	if c.ActiveProb == 0 {
		c.ActiveProb = 1 / (2 * c.C * c.C)
		if c.ActiveProb > 0.25 {
			c.ActiveProb = 0.25
		}
	}
	if c.SpreadPeriods == 0 {
		c.SpreadPeriods = c2i * ln
	}
	if c.SpreadPhases == 0 {
		// D_H + k pipelining phases (Lemma 4.8) plus w.h.p. slack for
		// retried phases (see endPhase).
		c.SpreadPhases = c.D + c.K + 4 + ln
	}
	return c
}

// Resolved returns a copy of the config with every defaulted field filled
// in, so harnesses can compute stage boundaries (MIS end, gather end)
// without duplicating the default formulas.
func (c FMMBConfig) Resolved() FMMBConfig { return c.withDefaults() }

// Rounds returns the total number of Fprog rounds of the FMMB schedule.
func (c FMMBConfig) Rounds() int {
	rc := c.withDefaults()
	return rc.MIS.Rounds() + 3*rc.GatherPeriods + rc.SpreadPhases*rc.SpreadPeriods*3
}

// FMMB is the Fast Multi-Message Broadcast automaton of Section 4. It
// requires the enhanced abstract MAC layer: time is divided into lock-step
// rounds of length Fprog (a broadcast starts at a round's beginning and is
// aborted at its end if not yet acknowledged), which needs timers, abort,
// and knowledge of Fprog. The schedule is:
//
//  1. MIS construction (Section 4.2) — Rounds() of MISConfig.
//  2. Message gathering (Section 4.3) — GatherPeriods periods of 3 rounds:
//     poll, hand-over, acknowledge. Afterwards every message is owned by
//     an MIS node w.h.p.
//  3. Overlay spreading (Section 4.4) — SpreadPhases runs of the overlay
//     local-broadcast procedure; in each phase an MIS node injects one
//     not-yet-sent message and relays carry it three hops, implementing a
//     pipelined BMMB over the overlay graph H.
//
// Every node performs the MMB deliver(m) output the first time it sees m
// in any payload.
type FMMB struct {
	cfg   FMMBConfig
	mis   *misState
	round int
	// misEnd, gatherEnd and total are the round indices where the MIS
	// stage, the gather stage and the whole schedule end, resolved once
	// from cfg.
	misEnd, gatherEnd, total int

	// The message sets are bitsets keyed by Msg.ID (msgSet): delivered
	// holds every message this node has output, and origin[id] is the
	// origin of delivered message id, recorded on its first sighting, so
	// the ID-keyed sets below still name whole messages.
	delivered msgSet
	origin    []mac.NodeID

	// Gather state.
	owned  []Msg // messages this node still owns (non-MIS hand-over list)
	polled bool  // heard a poll from a G-neighbor in round 1 of the period
	ackOut Msg   // message an MIS node must acknowledge in round 3
	hasAck bool  // ackOut is set

	// Spread state.
	have      msgSet // Mv: messages an MIS node holds
	sent      msgSet // M'v: messages already injected into a phase
	inbox     []Msg  // received this period, merged at period end
	cur       Msg    // message injected this phase
	hasCur    bool   // cur is set
	curAcked  bool   // some broadcast of cur was acknowledged
	curActive bool   // active in the current period
	relay     Msg    // message to relay in the next round
	hasRelay  bool   // relay is set
}

var (
	_ mac.Automaton    = (*FMMB)(nil)
	_ mac.Arriver      = (*FMMB)(nil)
	_ mac.TimerHandler = (*FMMB)(nil)
	_ mac.Resettable   = (*FMMB)(nil)
)

// NewFMMB returns a fresh FMMB process.
func NewFMMB(cfg FMMBConfig) *FMMB {
	f := &FMMB{mis: new(misState)}
	f.Reconfigure(cfg)
	return f
}

// Reset implements mac.Resettable: every stage's state returns to its
// initial value (the resolved config is kept), clearing rather than
// reallocating the sets and slices so reused fleets run allocation-free.
// origin is only read for delivered IDs, so it needs no clearing.
func (f *FMMB) Reset() {
	*f.mis = misState{cfg: f.mis.cfg}
	f.round = 0
	f.delivered.reset()
	f.owned = f.owned[:0]
	f.polled = false
	f.hasAck = false
	f.have.reset()
	f.sent.reset()
	f.inbox = f.inbox[:0]
	f.hasCur = false
	f.curAcked = false
	f.curActive = false
	f.hasRelay = false
}

// Reconfigure rebinds a pooled FMMB process to a new config without
// reallocating its state: trial workers use it to adapt a parked same-size
// fleet built for an earlier topology draw to the current one. It resolves
// the config's defaults and stage boundaries once, so rounds and receptions
// never re-derive them. Callers Reset() afterwards; the result is observably
// identical to NewFMMB(cfg).
func (f *FMMB) Reconfigure(cfg FMMBConfig) {
	rc := cfg.withDefaults()
	f.cfg = rc
	f.mis.cfg = rc.MIS
	f.misEnd = rc.MIS.Rounds()
	f.gatherEnd = f.misEnd + 3*rc.GatherPeriods
	f.total = rc.Rounds()
}

// NewFMMBFleet returns one FMMB automaton per node.
func NewFMMBFleet(n int, cfg FMMBConfig) []mac.Automaton {
	out := make([]mac.Automaton, n)
	for i := range out {
		out[i] = NewFMMB(cfg)
	}
	return out
}

// InMIS reports whether the node joined the MIS (valid after stage 1).
func (f *FMMB) InMIS() bool { return f.mis.InMIS }

// Holds reports whether the node holds m in its message set: its ID, from
// its origin.
func (f *FMMB) Holds(m Msg) bool { return f.have.has(m.ID) && f.origin[m.ID] == m.Origin }

// Wakeup implements mac.Automaton.
func (f *FMMB) Wakeup(ctx mac.Context) {
	f.startRound(ctx.(mac.EnhancedContext))
}

// Arrive implements mac.Arriver: the environment injects a message at time
// zero, before any broadcast activity.
func (f *FMMB) Arrive(ctx mac.Context, payload mac.Payload) {
	m := mustMsg(payload)
	f.deliver(ctx, m)
	f.owned = append(f.owned, m)
	f.have.add(m.ID)
}

// Timer implements mac.TimerHandler: each tick is a round boundary.
func (f *FMMB) Timer(ctx mac.EnhancedContext) {
	ctx.Abort()
	f.round++
	f.startRound(ctx)
}

// deliver performs the MMB deliver(m) output on m's first sighting and
// records its origin.
func (f *FMMB) deliver(ctx mac.Context, m Msg) {
	if f.delivered.has(m.ID) {
		return
	}
	f.delivered.add(m.ID)
	if m.ID >= len(f.origin) {
		n := max(m.ID+1, f.cfg.K)
		f.origin = slices.Grow(f.origin, n-len(f.origin))[:n]
	}
	f.origin[m.ID] = m.Origin
	ctx.Emit(DeliverKind, m.Payload())
}

func (f *FMMB) startRound(ctx mac.EnhancedContext) {
	if f.round >= f.total {
		return
	}
	ctx.SetTimer(ctx.Fprog())

	switch {
	case f.round < f.misEnd:
		f.mis.startRound(ctx, f.round)
	case f.round < f.gatherEnd:
		f.startGatherRound(ctx, f.round-f.misEnd)
	default:
		f.startSpreadRound(ctx, f.round-f.gatherEnd)
	}
}

// --- Gather (Section 4.3) ---

func (f *FMMB) startGatherRound(ctx mac.EnhancedContext, g int) {
	switch g % 3 {
	case 0: // Poll: active MIS nodes announce themselves.
		f.polled = false
		f.hasAck = false
		if f.mis.InMIS && ctx.Rand().Float64() < f.cfg.ActiveProb {
			ctx.Bcast(pollPayload{From: ctx.ID()}.payload())
		}
	case 1: // Hand-over: polled non-MIS owners send one owned message.
		if !f.mis.InMIS && f.polled && len(f.owned) > 0 {
			ctx.Bcast(gatherMsgPayload{M: f.owned[0], From: ctx.ID()}.payload())
		}
	case 2: // Acknowledge: MIS nodes confirm what they took.
		if f.mis.InMIS && f.hasAck {
			ctx.Bcast(gatherAckPayload{M: f.ackOut, From: ctx.ID()}.payload())
		}
	}
}

func (f *FMMB) onGatherRecv(ctx mac.Context, m mac.Message, g int) {
	switch m.Payload.Kind {
	case pollKind:
		if g%3 == 0 && m.Reliable && !f.mis.InMIS {
			f.polled = true
		}
	case gatherMsgKind:
		mm := Msg{ID: int(m.Payload.A), Origin: mac.NodeID(m.Payload.B)}
		f.deliver(ctx, mm)
		if g%3 == 1 && m.Reliable && f.mis.InMIS {
			if !f.have.has(mm.ID) {
				f.have.add(mm.ID)
				ctx.Emit("gather-own", mm.Payload())
			}
			f.ackOut, f.hasAck = mm, true
		}
	case gatherAckKind:
		mm := Msg{ID: int(m.Payload.A), Origin: mac.NodeID(m.Payload.B)}
		f.deliver(ctx, mm)
		if g%3 == 2 && m.Reliable && !f.mis.InMIS {
			f.dropOwned(mm)
		}
	}
}

func (f *FMMB) dropOwned(m Msg) {
	for i, o := range f.owned {
		if o == m {
			f.owned = append(f.owned[:i], f.owned[i+1:]...)
			return
		}
	}
}

// --- Spread (Section 4.4) ---

func (f *FMMB) startSpreadRound(ctx mac.EnhancedContext, s int) {
	perPhase := f.cfg.SpreadPeriods * 3
	within := s % perPhase
	pr := within % 3

	if within == 0 {
		// Phase start: commit the previous phase's injection and select
		// the next unsent message (Lemma 4.8's pipelining).
		f.endPhase()
		f.cur, f.hasCur = f.pickUnsent()
		f.curAcked = false
		if f.hasCur {
			ctx.Emit("spread-inject", f.cur.Payload())
		}
	}
	if pr == 0 {
		// Period start: merge last period's inbox, roll activation.
		f.mergeInbox()
		f.curActive = f.mis.InMIS && ctx.Rand().Float64() < f.cfg.ActiveProb
		f.hasRelay = false
		if f.curActive && f.hasCur {
			ctx.Bcast(spreadPayload{M: f.cur, From: ctx.ID()}.payload())
			return
		}
	}
	if pr > 0 && f.hasRelay {
		f.hasRelay = false
		ctx.Bcast(spreadPayload{M: f.relay, From: ctx.ID()}.payload())
	}
}

// endPhase commits the injected message to the sent set — but only when at
// least one of its broadcasts this phase was acknowledged, which proves all
// reliable neighbors received it. An unlucky phase (never active, or every
// broadcast collided) is retried, which only strengthens Lemma 4.8's
// pipelining invariant at the cost of slack phases (SpreadPhases includes
// headroom for this).
func (f *FMMB) endPhase() {
	f.mergeInbox()
	if f.hasCur && f.curAcked {
		f.sent.add(f.cur.ID)
	}
	f.hasCur = false
}

// mergeInbox folds messages received during the finished period into the
// node's message set.
func (f *FMMB) mergeInbox() {
	for _, m := range f.inbox {
		f.have.add(m.ID)
	}
	f.inbox = f.inbox[:0]
}

// pickUnsent returns the smallest-ID held message not yet injected, and
// whether there is one: the lowest set bit of have &^ sent, one word at a
// time.
func (f *FMMB) pickUnsent() (Msg, bool) {
	if !f.mis.InMIS {
		return Msg{}, false
	}
	for w, held := range f.have.words {
		if unsent := held &^ f.sent.word(w); unsent != 0 {
			id := w<<6 | bits.TrailingZeros64(unsent)
			return Msg{ID: id, Origin: f.origin[id]}, true
		}
	}
	return Msg{}, false
}

func (f *FMMB) onSpreadRecv(ctx mac.Context, m mac.Message, s int) {
	if m.Payload.Kind != spreadKind {
		return
	}
	mm := Msg{ID: int(m.Payload.A), Origin: mac.NodeID(m.Payload.B)}
	f.deliver(ctx, mm)
	pr := (s % (f.cfg.SpreadPeriods * 3)) % 3
	if m.Reliable && pr < 2 {
		// Relay in the next round of this period (rounds 2 and 3 relay
		// what arrived in rounds 1 and 2).
		f.relay, f.hasRelay = mm, true
	}
	if f.mis.InMIS {
		f.inbox = append(f.inbox, mm)
	}
}

// Recv implements mac.Automaton, dispatching on the current stage. Every
// stage tells reliable senders apart by m.Reliable.
func (f *FMMB) Recv(ctx mac.Context, m mac.Message) {
	switch {
	case f.round < f.misEnd:
		f.mis.onRecv(ctx, m)
	case f.round < f.gatherEnd:
		f.onGatherRecv(ctx, m, f.round-f.misEnd)
	default:
		f.onSpreadRecv(ctx, m, f.round-f.gatherEnd)
	}
}

// Acked implements mac.Automaton: an acknowledged spread broadcast of the
// current phase message confirms reliable-neighborhood delivery.
func (f *FMMB) Acked(_ mac.Context, m mac.Message) {
	if m.Payload.Kind != spreadKind || !f.hasCur {
		return
	}
	if (Msg{ID: int(m.Payload.A), Origin: mac.NodeID(m.Payload.B)}) == f.cur {
		f.curAcked = true
	}
}
