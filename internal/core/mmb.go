// Package core implements the paper's contribution: the multi-message
// broadcast (MMB) problem (Section 2), the BMMB algorithm for the standard
// abstract MAC layer (Section 3), and the FMMB algorithm with its MIS,
// gather and spread subroutines for the enhanced layer (Section 4), plus a
// runner that executes an MMB instance end-to-end and reports completion
// metrics and model-compliance checks.
//
// Run validates its configuration and returns an error for anything
// malformed — RunConfig.Validate documents every condition. (Earlier
// versions panicked on invalid configs; MustRun preserves that fail-fast
// contract for calibrated harnesses and tests.) Algorithms are also
// registered by name (RegisterAlgorithm) so the scenario layer can resolve
// them declaratively.
package core

import (
	"fmt"
	"slices"

	"amac/internal/mac"
)

// Msg is one MMB broadcast message. Messages are black boxes that cannot be
// combined (no network coding); only a constant number fit in one local
// broadcast — the algorithms here send exactly one per broadcast. Msg is
// comparable so it can key sets and maps.
type Msg struct {
	// ID identifies the message within an execution: a workload of k
	// messages numbers them 0..k−1, each exactly once (Run rejects any
	// other numbering; every generator here complies), so per-message
	// state — BMMB's rcvd set, the runner's completion watcher — is a
	// dense table indexed by ID.
	ID int
	// Origin is the node the environment injected the message at.
	Origin mac.NodeID
}

// String renders the message compactly.
func (m Msg) String() string { return fmt.Sprintf("m%d@%d", m.ID, m.Origin) }

// msgSet is a set of messages keyed by Msg.ID, which identifies a message
// within an execution: bit ID of words. A membership test is one bit test.
// The first word lives in the set itself, so IDs below 64 never allocate;
// past that the words grow on demand, so the holder never needs to know k.
// A set must not be copied once used, since words may alias word0.
type msgSet struct {
	words []uint64
	word0 [1]uint64
}

// has reports whether the set holds a message with the given ID.
func (s *msgSet) has(id int) bool {
	w := id >> 6
	return uint(w) < uint(len(s.words)) && s.words[w]&(1<<(uint(id)&63)) != 0
}

// add inserts id. Hot callers test has first, which inlines, so the call
// is paid once per message rather than once per sighting.
func (s *msgSet) add(id int) {
	if uint(id>>6) >= uint(len(s.words)) {
		s.grow(id)
	}
	s.words[id>>6] |= 1 << (uint(id) & 63)
}

// word returns word w of the set, zero past its end.
func (s *msgSet) word(w int) uint64 {
	if w < len(s.words) {
		return s.words[w]
	}
	return 0
}

// reset empties the set, keeping its words.
func (s *msgSet) reset() { clear(s.words) }

// grow extends the set to cover id, zero-filled: first onto word0, then at
// least doubling, so a stream of rising IDs costs amortized O(1).
func (s *msgSet) grow(id int) {
	if id < 0 {
		panic(fmt.Sprintf("core: message ID %d (IDs are 0..k-1)", id))
	}
	if s.words == nil {
		s.words = s.word0[:]
		if id < 64 {
			return
		}
	}
	n, words := len(s.words), max(id>>6+1, 2*len(s.words))
	s.words = slices.Grow(s.words, words-n)[:words]
	clear(s.words[n:])
}

// Assignment maps each node to the messages the environment injects there
// at time zero. Index is the node ID.
type Assignment [][]Msg

// K returns the total number of messages in the assignment.
func (a Assignment) K() int {
	k := 0
	for _, ms := range a {
		k += len(ms)
	}
	return k
}

// Messages returns all messages in node order.
func (a Assignment) Messages() []Msg {
	out := make([]Msg, 0, a.K())
	for _, ms := range a {
		out = append(out, ms...)
	}
	return out
}

// DeliverKind is the trace event kind emitted by MMB algorithms when a node
// performs the deliver(m) output of the MMB problem definition.
const DeliverKind = "deliver"
