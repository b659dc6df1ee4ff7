package core

import (
	"fmt"
	"sort"

	"amac/internal/graph"
	"amac/internal/sim"
)

// Arrival is one timed environment injection for the online (dynamic)
// variant of MMB mentioned in the paper (footnote 4) and studied in [30]:
// messages arrive during the execution rather than all at time zero. BMMB
// handles this regime unchanged — its guarantees are per-message.
type Arrival struct {
	At   sim.Time
	Node graph.NodeID
	Msg  Msg
}

// Workload is a set of timed arrivals. The zero value is empty; build with
// Add or the generators below.
type Workload struct {
	arrivals []Arrival
	// sorted memoizes Arrivals(): workloads are built once and consulted
	// repeatedly (twice per run, once per trial of a warm sweep), so the
	// sort-and-copy happens once per mutation instead of per call. idErr
	// memoizes the message-ID check (see Msg.ID) alongside it, so warm
	// trials re-check nothing.
	sorted []Arrival
	idErr  error
}

// Add appends one arrival.
func (w *Workload) Add(at sim.Time, node graph.NodeID, m Msg) {
	w.arrivals = append(w.arrivals, Arrival{At: at, Node: node, Msg: m})
	w.sorted = nil
}

// K returns the number of messages.
func (w *Workload) K() int { return len(w.arrivals) }

// Arrivals returns the arrivals sorted by time (stable on insertion order).
// The returned slice is memoized and owned by the workload; callers must not
// mutate it.
func (w *Workload) Arrivals() []Arrival {
	w.memoize()
	return w.sorted
}

// memoize fills the sorted arrivals and the ID check once per mutation.
func (w *Workload) memoize() {
	if w.sorted != nil || len(w.arrivals) == 0 {
		return
	}
	out := append([]Arrival(nil), w.arrivals...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	w.sorted = out
	w.idErr = checkIDs(w.arrivals)
}

// idError reports the memoized message-ID check (nil when the IDs follow
// the Msg.ID contract).
func (w *Workload) idError() error {
	w.memoize()
	return w.idErr
}

// checkIDs reports the first arrival, in insertion order, that breaks the
// Msg.ID contract: the k messages carry IDs 0..k−1, each exactly once.
func checkIDs(arrivals []Arrival) error {
	k := len(arrivals)
	used := make([]uint64, (k+63)/64)
	for _, ar := range arrivals {
		id := ar.Msg.ID
		if id < 0 || id >= k {
			return fmt.Errorf("core: message %v has ID %d outside 0..%d (the k messages need IDs 0..k-1, each once)", ar.Msg, id, k-1)
		}
		if used[id>>6]&(1<<(uint(id)&63)) != 0 {
			return fmt.Errorf("core: message ID %d is used twice (the k messages need IDs 0..k-1, each once)", id)
		}
		used[id>>6] |= 1 << (uint(id) & 63)
	}
	return nil
}

// MaxAt returns the latest arrival time (0 when empty).
func (w *Workload) MaxAt() sim.Time {
	var max sim.Time
	for _, a := range w.arrivals {
		if a.At > max {
			max = a.At
		}
	}
	return max
}

// FromAssignment converts a time-zero assignment into a workload.
func FromAssignment(a Assignment) *Workload {
	w := &Workload{}
	for v, msgs := range a {
		for _, m := range msgs {
			w.Add(0, graph.NodeID(v), m)
		}
	}
	return w
}

// PoissonWorkload spreads k messages over the first `span` ticks at
// uniformly random times and nodes, drawn from rng-like integer hashing of
// the seed so workloads are reproducible without threading a *rand.Rand.
func PoissonWorkload(n, k int, span sim.Time, seed int64) *Workload {
	w := &Workload{}
	state := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < k; i++ {
		at := sim.Time(0)
		if span > 0 {
			at = sim.Time(next() % uint64(span))
		}
		node := graph.NodeID(next() % uint64(n))
		w.Add(at, node, Msg{ID: i, Origin: node})
	}
	return w
}
