package core

import (
	"math"

	"amac/internal/mac"
)

// Payload types used by the FMMB subroutines. All are comparable value
// types so traces and sets can use them directly. Every payload carries at
// most one MMB message, respecting the constant-size broadcast limit.

// electPayload is an election-part broadcast: the sender's random bitstring
// for the current MIS phase (Section 4.2).
type electPayload struct {
	Bits  uint64
	Phase int
}

// announcePayload is an announcement-part broadcast: a fresh MIS member
// announcing its ID (Section 4.2).
type announcePayload struct {
	From mac.NodeID
}

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (0 for n ≤ 1).
func Log2Ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// MISConfig parameterizes the MIS subroutine of Section 4.2. The paper's
// schedule is O(c² log² n) phases of 4·log n election rounds plus
// Θ(c² log n) announcement rounds; the zero value selects constants sized
// for simulation scale (the asymptotics are the paper's, the leading
// constants are tuned so runs finish quickly — the subroutine converges far
// earlier than its worst-case bound, which tests verify via MIS validity).
type MISConfig struct {
	// N is the network size (nodes know n).
	N int
	// C is the grey zone constant (c ≥ 1).
	C float64
	// Phases is the number of phases; 0 selects max(12, 3⌈log n⌉).
	Phases int
	// ElectionRounds per phase; 0 selects 4⌈log n⌉.
	ElectionRounds int
	// AnnounceRounds per phase; 0 selects ⌈4c²⌉·⌈log n⌉.
	AnnounceRounds int
	// AnnounceProb is the per-round announcement probability; 0 selects
	// 1/(2c²) capped at 1/2.
	AnnounceProb float64
}

// withDefaults resolves zero fields.
func (c MISConfig) withDefaults() MISConfig {
	if c.N < 1 {
		panic("core: MISConfig.N must be >= 1")
	}
	if c.C < 1 {
		c.C = 1
	}
	ln := Log2Ceil(c.N)
	if ln < 1 {
		ln = 1
	}
	c2 := c.C * c.C
	if c.Phases == 0 {
		c.Phases = 3 * ln
		if c.Phases < 12 {
			c.Phases = 12
		}
	}
	if c.ElectionRounds == 0 {
		c.ElectionRounds = 4 * ln
	}
	if c.AnnounceRounds == 0 {
		c.AnnounceRounds = int(math.Ceil(4*c2)) * ln
	}
	if c.AnnounceProb == 0 {
		c.AnnounceProb = 1 / (2 * c2)
		if c.AnnounceProb > 0.5 {
			c.AnnounceProb = 0.5
		}
	}
	return c
}

// Rounds returns the total number of Fprog rounds the subroutine takes.
func (c MISConfig) Rounds() int {
	rc := c.withDefaults()
	return rc.Phases * (rc.ElectionRounds + rc.AnnounceRounds)
}

// misState is the per-node state machine of the MIS subroutine. It is
// driven round-by-round by its owner (MISNode standalone, or FMMB as its
// first stage): startRound is called at the beginning of each round and
// may broadcast; onRecv is called for every message received.
type misState struct {
	cfg MISConfig

	// InMIS is set once the node joins the MIS.
	InMIS bool
	// Covered is set once the node learns a G-neighbor is in the MIS
	// (permanently inactive in the paper's terms).
	Covered bool

	tempInactive    bool
	joinedThisPhase bool
	bits            uint64
	sentThisRound   bool
	inElection      bool
}

// Decided reports whether the node's MIS status is settled.
func (s *misState) Decided() bool { return s.InMIS || s.Covered }

// phaseOf decomposes a round index into (phase, roundInPhase).
func (s *misState) phaseOf(round int) (phase, r int) {
	perPhase := s.cfg.ElectionRounds + s.cfg.AnnounceRounds
	return round / perPhase, round % perPhase
}

// startRound runs the beginning-of-round logic for the given MIS round
// index, broadcasting through ctx when the schedule says so.
func (s *misState) startRound(ctx mac.Context, round int) {
	phase, r := s.phaseOf(round)
	s.sentThisRound = false
	participating := !s.InMIS && !s.Covered

	switch {
	case r == 0:
		// Phase start: temporary inactivity resets; active nodes draw a
		// fresh random bitstring b(v) of ElectionRounds bits.
		s.tempInactive = false
		s.joinedThisPhase = false
		s.inElection = true
		if participating {
			s.bits = uint64(ctx.Rand().Int63())
		}
		fallthrough
	case r < s.cfg.ElectionRounds:
		// Election round r: broadcast iff the r-th bit of b(v) is 1.
		if participating && !s.tempInactive && s.bits&(1<<uint(r%63)) != 0 {
			ctx.Bcast(electPayload{Bits: s.bits, Phase: phase}.payload())
			s.sentThisRound = true
		}
	default:
		if r == s.cfg.ElectionRounds {
			// Election part over: survivors join the MIS.
			s.inElection = false
			if participating && !s.tempInactive {
				s.InMIS = true
				s.joinedThisPhase = true
				ctx.Emit("mis-join", mac.Int(int64(phase)))
			}
		}
		// Announcement round: fresh members announce with probability
		// AnnounceProb.
		if s.joinedThisPhase && ctx.Rand().Float64() < s.cfg.AnnounceProb {
			ctx.Bcast(announcePayload{From: ctx.ID()}.payload())
			s.sentThisRound = true
		}
	}
}

// onRecv processes a message received during an MIS round; m.Reliable
// reports whether the sender is a reliable neighbor of this node.
func (s *misState) onRecv(ctx mac.Context, m mac.Message) {
	if s.InMIS || s.Covered {
		return
	}
	switch m.Payload.Kind {
	case electKind:
		// A node that stays silent in an election round but hears any
		// message — over G or G′ — goes temporarily inactive.
		if s.inElection && !s.sentThisRound {
			s.tempInactive = true
		}
	case announceKind:
		// Announcements count only over reliable links: hearing one from
		// a G-neighbor covers this node permanently.
		if m.Reliable {
			s.Covered = true
			ctx.Emit("mis-covered", mac.Int(int64(m.Sender)))
		} else if s.inElection && !s.sentThisRound {
			s.tempInactive = true
		}
	}
}

// MISNode runs the MIS subroutine standalone on the enhanced abstract MAC
// layer, dividing time into rounds of length Fprog exactly as FMMB does
// (Section 4.1): broadcasts start at the beginning of a round and are
// aborted at its end if not yet completed.
type MISNode struct {
	state  *misState
	rounds int // the schedule length, resolved once from the config
	round  int
}

var (
	_ mac.Automaton    = (*MISNode)(nil)
	_ mac.TimerHandler = (*MISNode)(nil)
	_ mac.Resettable   = (*MISNode)(nil)
)

// NewMISNode returns a standalone MIS automaton.
func NewMISNode(cfg MISConfig) *MISNode {
	rc := cfg.withDefaults()
	return &MISNode{state: &misState{cfg: rc}, rounds: rc.Rounds()}
}

// Reset implements mac.Resettable: the node returns to its pre-run state
// (the resolved config is kept), so MIS fleets can be reused across trials.
func (mn *MISNode) Reset() {
	*mn.state = misState{cfg: mn.state.cfg}
	mn.round = 0
}

// NewMISFleet returns one MISNode per node.
func NewMISFleet(n int, cfg MISConfig) []mac.Automaton {
	out := make([]mac.Automaton, n)
	for i := range out {
		out[i] = NewMISNode(cfg)
	}
	return out
}

// InMIS reports whether this node joined the MIS.
func (mn *MISNode) InMIS() bool { return mn.state.InMIS }

// Covered reports whether this node learned of an MIS G-neighbor.
func (mn *MISNode) Covered() bool { return mn.state.Covered }

// Wakeup implements mac.Automaton.
func (mn *MISNode) Wakeup(ctx mac.Context) {
	mn.startRound(ctx.(mac.EnhancedContext))
}

// Timer implements mac.TimerHandler: each tick is a round boundary.
func (mn *MISNode) Timer(ctx mac.EnhancedContext) {
	ctx.Abort()
	mn.round++
	mn.startRound(ctx)
}

func (mn *MISNode) startRound(ctx mac.EnhancedContext) {
	if mn.round >= mn.rounds {
		return
	}
	ctx.SetTimer(ctx.Fprog())
	mn.state.startRound(ctx, mn.round)
}

// Recv implements mac.Automaton.
func (mn *MISNode) Recv(ctx mac.Context, m mac.Message) {
	mn.state.onRecv(ctx, m)
}

// Acked implements mac.Automaton; round-based broadcasts need no reaction.
func (mn *MISNode) Acked(mac.Context, mac.Message) {}
