package sched

import (
	"amac/internal/mac"
	"amac/internal/sim"
)

// Contention models a congested MAC: each receiver accepts at most one
// message per Fprog window (a "slot"), choosing among pending candidates by
// earliest deadline first. Reliable deliveries carry a hard deadline of
// bcast + Fack and are force-delivered when a slot can no longer wait, so
// the acknowledgment bound always holds; unreliable deliveries are
// best-effort and dropped when their instance terminates first.
//
// This scheduler makes the Fprog ≪ Fack separation emerge organically: a
// node surrounded by many concurrent broadcasters receives *something*
// every Fprog (progress bound) while any *specific* message may take the
// full Fack (acknowledgment bound) — the star example from the paper's
// introduction, footnote 2.
//
// Per receiver the candidates live in two min-heaps keyed by (deadline,
// enqueue order) — one for required (G-edge) and one for best-effort
// deliveries — so each slot picks its EDF winner and drains its overdue
// required candidates in O(log d) per operation instead of rescanning the
// whole pending set.
type Contention struct {
	// Rel selects which unreliable links fire; nil means Never.
	Rel Reliability

	api mac.API
	rcv []receiverState
}

// candidate is a pending delivery of inst to a receiver, at the receiver's
// slot in inst's G′ row. Whether it is required is which heap holds it: a
// struct of at most four fields stays in registers when the heaps pass it
// by value.
type candidate struct {
	inst     *mac.Instance
	deadline sim.Time
	seq      uint64
	slot     int32
}

// candHeap is a slice-backed binary min-heap of candidates ordered by
// (deadline, seq). seq is the receiver-local enqueue counter, which makes
// heap order — and therefore the whole execution — deterministic.
type candHeap []candidate

func (h candHeap) less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}

func (h *candHeap) push(c candidate) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *candHeap) pop() candidate {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = candidate{}
	*h = s[:n]
	s = *h
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && s.less(left, smallest) {
			smallest = left
		}
		if right < n && s.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

type receiverState struct {
	required  candHeap // candidates over G edges (deadline-guaranteed)
	optional  candHeap // best-effort candidates over G'\G edges
	seq       uint64   // enqueue counter feeding the heap tie-break
	scheduled bool
	nextAt    sim.Time // when the scheduled processing fires
}

// dropDead pops candidates of terminated instances off the heap top.
// Buried dead candidates are collected when they surface.
func dropDead(h *candHeap) {
	for len(*h) > 0 && (*h)[0].inst.Terminated() {
		h.pop()
	}
}

// peekLive returns the live heap top, purging dead candidates first.
func (rs *receiverState) peekLive(h *candHeap) (candidate, bool) {
	dropDead(h)
	if len(*h) == 0 {
		return candidate{}, false
	}
	return (*h)[0], true
}

var (
	_ mac.Scheduler      = (*Contention)(nil)
	_ mac.TimerScheduler = (*Contention)(nil)
	_ Resettable         = (*Contention)(nil)
)

// Reset implements Resettable: per-run receiver state is re-initialized by
// Attach (which reuses its capacity), so re-arming only resets the
// reliability policy.
func (c *Contention) Reset(Env) bool {
	resetRel(c.Rel)
	return true
}

// Name implements mac.Scheduler.
func (c *Contention) Name() string {
	rel := "never"
	if c.Rel != nil {
		rel = c.Rel.Name()
	}
	return "contention(rel=" + rel + ")"
}

// Attach implements mac.Scheduler. Receiver state — including the heap
// backing arrays — is reused across attachments when the network size
// allows, so warm re-runs allocate nothing here.
func (c *Contention) Attach(api mac.API) {
	c.api = api
	n := api.Dual().N()
	if cap(c.rcv) < n {
		c.rcv = make([]receiverState, n)
		return
	}
	c.rcv = c.rcv[:n]
	for i := range c.rcv {
		rs := &c.rcv[i]
		clearHeap(&rs.required)
		clearHeap(&rs.optional)
		rs.seq = 0
		rs.scheduled = false
		rs.nextAt = 0
	}
}

// clearHeap empties a heap, zeroing the retained backing array so recycled
// candidates do not pin instances.
func clearHeap(h *candHeap) {
	s := *h
	for i := range s {
		s[i] = candidate{}
	}
	*h = s[:0]
}

// OnBcast implements mac.Scheduler.
//
//amac:hotpath
func (c *Contention) OnBcast(b *mac.Instance) {
	deadline := b.Start + c.api.Fack()
	// The G-neighbors are the row slots whose reliability bit is set, in
	// G.Neighbors order (both ascend by node ID).
	nbrs := b.Neighbors()
	for i, j := range nbrs {
		if b.SlotReliable(i) {
			c.enqueue(j, candidate{inst: b, deadline: deadline, slot: int32(i)}, true)
		}
	}
	for _, s := range greyTargets(c.api, b, c.Rel) {
		c.enqueue(nbrs[s], candidate{inst: b, deadline: deadline, slot: s}, false)
	}
	if c.api.Dual().G.Degree(b.Sender) == 0 {
		// No reliable neighbors to wait for: ack after one progress window.
		c.api.ScheduleAck(b.Start+c.api.Fprog(), b)
	}
}

// OnAbort implements mac.Scheduler. Terminated instances are dropped lazily
// at processing time.
func (c *Contention) OnAbort(*mac.Instance) {}

//amac:hotpath
func (c *Contention) enqueue(j mac.NodeID, cand candidate, required bool) {
	rs := &c.rcv[j]
	cand.seq = rs.seq
	rs.seq++
	if required {
		rs.required.push(cand)
	} else {
		rs.optional.push(cand)
	}
	now := c.api.Now()
	// A fresh delivery takes one progress window; if the receiver already
	// has a processing slot booked sooner, the cadence serves everyone.
	want := now + c.api.Fprog()
	if !rs.scheduled || rs.nextAt > want {
		c.schedule(j, want)
	}
}

//amac:hotpath
func (c *Contention) schedule(j mac.NodeID, at sim.Time) {
	rs := &c.rcv[j]
	rs.scheduled = true
	rs.nextAt = at
	c.api.ScheduleTimer(at, nil, int64(j), int64(at))
}

// OnTimer implements mac.TimerScheduler: a receiver's processing slot. Only
// the most recently booked slot fires; superseded bookings (a sooner slot
// was scheduled after this one) are recognized by the nextAt mismatch and
// dropped.
//
//amac:hotpath
func (c *Contention) OnTimer(_ any, a, b int64) {
	j, at := mac.NodeID(a), sim.Time(b)
	rs := &c.rcv[j]
	if rs.nextAt == at && rs.scheduled {
		rs.scheduled = false
		c.process(j)
	}
}

// process runs one receive slot for j: deliver the earliest-deadline live
// candidate (required wins deadline ties), then force-deliver any required
// candidate that cannot survive another slot.
//
//amac:hotpath
func (c *Contention) process(j mac.NodeID) {
	rs := &c.rcv[j]
	now := c.api.Now()

	req, hasReq := rs.peekLive(&rs.required)
	opt, hasOpt := rs.peekLive(&rs.optional)
	switch {
	case hasReq && (!hasOpt || req.deadline <= opt.deadline):
		c.deliver(rs.required.pop(), true)
	case hasOpt:
		c.deliver(rs.optional.pop(), false)
	default:
		return
	}

	// Force-deliver reliable candidates that would miss their deadline if
	// they waited one more slot (deadline enforcement beats slot capacity:
	// the model's Fack bound is unconditional). They sit at the heap front
	// because deadlines are enqueue-monotone (deadline = bcast + Fack).
	for {
		top, ok := rs.peekLive(&rs.required)
		if !ok || top.deadline > now+c.api.Fprog() {
			break
		}
		c.deliver(rs.required.pop(), true)
	}

	_, hasReq = rs.peekLive(&rs.required)
	_, hasOpt = rs.peekLive(&rs.optional)
	if hasReq || hasOpt {
		c.schedule(j, now+c.api.Fprog())
	}
}

// deliver performs the rcv for cand, acking the instance when its last
// reliable delivery completes.
//
//amac:hotpath
func (c *Contention) deliver(cand candidate, required bool) {
	c.api.Deliver(cand.inst, int(cand.slot))
	if required && cand.inst.AllReliableDelivered() {
		c.api.Ack(cand.inst)
	}
}
